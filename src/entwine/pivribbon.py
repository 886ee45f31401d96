"""Pivotal and ribbon morphisms on entwining datums.

A pivotal or ribbon candidate is a linear map g: C -> A satisfying one
law quadratic in g, several laws linear in g and convolution
invertibility.  Each kind's laws are one table (``_laws``), which both
the verifiers and the finder read.  Verified pivotal candidates induce a
monoidal isomorphism onto the double right dual (beta) on every module;
verified ribbon candidates, whose quadratic law reads R, induce a twist
(theta).  Verification is exhaustive and exact.  The finder
solves the linear laws into an affine family, runs the quadratic law
once on one kernel op for the whole family, with polynomial coefficients,
and branches and pins on its residuals: a degree-1 residual pins a
parameter, a residual with a common variable splits, a one-variable
residual splits on its rational roots.  A branch that none of these
rules reaches stays open, and the finder says so.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isqrt, prod

from .exactla import (
    ONE,
    ZERO,
    Cap,
    Cup,
    KernelOp,
    Matrix,
    Rows,
    TensorOp,
    Vector,
    _as_rat,
    basis_batches,
    hom_operator,
    pipeline_matrix,
    run_batch,
    solve_affine,
)
from .entwining import (
    DoubleQuantumGroup,
    HomCA,
    MonoidalEntwiningDatum,
    conv_inverse,
    datums_compatible,
    invertibility_item,
)
from .hopfcore import (
    BilinearForm,
    Element,
    Functional,
    HopfAlgebraData,
    _degenerate_datum,
    trivial_hopf,
)
from .report import AxiomReport, compare_item, _ap, _pm, _slot


# kind is "pivotal" or "ribbon"; map is a HomCA on datum
MorphismCandidate = namedtuple("MorphismCandidate", "datum map kind")
# status is "complete", "parametric" or "undecided"; family is an AffineSolution or None
FinderResult = namedtuple("FinderResult", "status solutions family notes")


# ---------------------------------------------------------------------------
# The law table: one record per kind
#
# A law's side takes g as a kernel op and gives steps.  The quadratic law's
# sides run on its scan legs alone.  A linear law's sides end in a slot leg
# after the scanned legs, and g is always applied where its input leg sits
# just before that slot leg.  A verifier passes g's TensorOp, which carries
# the slot leg along as 0, and inserts the slot leg with a leading _slot
# step; the finder passes a SlotLeg through hom_operator, which seeds the
# slot leg, and reads the side off as a matrix in the entries of g.
# ---------------------------------------------------------------------------


# a law on g: lhs(g) and rhs(g) give the steps of its two sides, which
# agree on every scan tuple
Law = namedtuple("Law", "axiom_id scan out lhs rhs")
# the laws of one kind over its datum: the law quadratic in g, then the
# laws linear in g, the first `normal` of which say lhs = 1 (their rhs is
# the empty side), and the id of the convolution invertibility item
Laws = namedtuple("Laws", "datum quadratic linear normal inverse_id")


def _twisted_laws(d: MonoidalEntwiningDatum, ids, a_twist=(), c_twist=()) -> list[Law]:
    """The action law g(c) a = a_phi g(c^phi), scanned over (a, c), and the
    coaction law g(c1) (x) c2 = g(c2)_phi (x) c1^phi, with the pivotal
    twists as steps: S_A^2 on a (P3), S_C^{-2} on c1^phi (P4)."""
    nc, na = d.c_dim, d.a_dim
    phi, mul_a, comul_c = d.phi_op, d.a.mul_op, d.c.comul_op
    return [
        Law(ids[0], (na, nc), (na,),
            lambda g: (*a_twist, _ap(1, g), _pm((1, 0, 2)), _ap(0, mul_a)),
            lambda g: (_pm((1, 0, 2)), _ap(0, phi), _ap(1, g), _ap(0, mul_a))),
        Law(ids[1], (nc,), (na, nc),
            lambda g: (_ap(0, comul_c), _pm((1, 0, 2)), _ap(1, g), _pm((1, 0, 2))),
            lambda g: (_ap(0, comul_c), _ap(1, g), _ap(0, phi), *c_twist)),
    ]


def _laws(target, kind: str) -> Laws:
    """The law table of kind over target: for "pivotal" a datum or a double
    structure (its datum), for "ribbon" a double structure, whose R enters R3."""
    if kind == "pivotal":
        d = target if isinstance(target, MonoidalEntwiningDatum) else target.datum
    elif kind == "ribbon":
        if not isinstance(target, DoubleQuantumGroup):
            raise ValueError("ribbon search needs a double structure")
        d = target.datum
    else:
        raise ValueError("kind must be 'pivotal' or 'ribbon'")
    nc, na = d.c_dim, d.a_dim

    def linear(g):
        "Delta_A(g(xy)), the side of P1 and R3 that is linear in g."
        return _ap(0, d.c.mul_op), _ap(0, g), _ap(0, d.a.comul_op)

    if kind == "pivotal":
        return Laws(d, Law("P1_grouplike", (nc, nc), (na, na), linear,
                           lambda g: (_ap(0, g), _ap(1, g))), [
            Law("P2_counit_one", (), (),
                lambda g: (_ap(0, d.c.unit_op), _ap(0, g), _ap(0, d.a.counit_op)),
                lambda g: ()),
            *_twisted_laws(d, ("P3_action_twist", "P4_coaction_twist"),
                           [_ap(0, d.a.antipode_sq_op)], [_ap(1, d.c.antipode_inv_sq_op)]),
        ], 1, "P5_conv_invertible")
    rr, phi, mul_a, comul_c = target.rmap_op, d.phi_op, d.a.mul_op, d.c.comul_op

    def bilinear(g):
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
            _ap(0, g),          # g(x1) ...
            _ap(2, g),          # .. g(y1) ..
            _pm((0, 1, 4, 2, 3, 5)),  # g(x1) r2p R1 g(y1) r1f R2
            _ap(0, mul_a),
            _ap(0, mul_a),      # first output leg done
            _ap(1, mul_a),
            _ap(1, mul_a),
        )

    # R4: g(c) = (S_A^{-1} g S_C (c^phi))_phi: phi's coalgebra output runs
    # through g back into its own algebra input, a loop that a Cup opens
    # and a Cap closes
    cup, cap = Cup(na), Cap(na)
    r4 = Law("R4_self_dual", (nc,), (na,), lambda g: (_ap(0, g),), lambda g: (
        _ap(1, cup),                  # c x x s
        _ap(0, phi),                  # x_phi c^phi x s
        _pm((0, 2, 1, 3)),            # x_phi x c^phi s
        _ap(2, d.c.antipode_op),
        _ap(2, g),
        _ap(2, d.a.antipode_inv_op),  # x_phi x y s
        _ap(1, cap),                  # x_phi s where x = y
    ))
    return Laws(d, Law("R3_braided_square", (nc, nc), (na, na), linear, bilinear),
                [*_twisted_laws(d, ("R1_action", "R2_coaction")), r4], 0, "R5_conv_invertible")


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


def _verify(laws: Laws, g: HomCA) -> AxiomReport:
    "Each law of the table on g, the quadratic one first, then invertibility."
    g_op = g.op
    quad = laws.quadratic
    return AxiomReport([
        compare_item(quad.axiom_id, quad.scan, quad.out, quad.lhs(g_op), quad.rhs(g_op)),
        *(compare_item(axiom_id, scan, out + (1,),
                       (_slot(len(scan)), *lhs(g_op)), (_slot(len(scan)), *rhs(g_op)))
          for axiom_id, scan, out, lhs, rhs in laws.linear),
        invertibility_item(laws.inverse_id, g.map, conv_inverse(g)),
    ])


def verify_pivotal(d: MonoidalEntwiningDatum, g: HomCA) -> AxiomReport:
    """Pivotal laws P1-P4 plus convolution invertibility as item P5.

    P1: Delta_A(g(cd)) = g(c) (x) g(d)        (all pairs c, d)
    P2: eps_A(g(1_C)) = 1
    P3: g(c) S_A^2(a) = a_phi g(c^phi)        (all pairs a, c)
    P4: g(c1) (x) c2 = g(c2)_phi (x) S_C^{-2}(c1^phi)
    """
    laws = _laws(d, "pivotal")
    if not datums_compatible(g.datum, laws.datum):
        raise ValueError("g must be a map over d")
    return _verify(laws, g)


def verify_ribbon(q: DoubleQuantumGroup, g: HomCA) -> AxiomReport:
    """Ribbon laws R1-R4 plus convolution invertibility as item R5.

    R1: g(c) a = a_phi g(c^phi)               (all pairs a, c)
    R2: g(c1) (x) c2 = g(c2)_phi (x) c1^phi
    R3: Delta_A(g(xy)) = the braided square through R applied twice
    R4: g(c) = (S_A^{-1} g S_C (c^phi))_phi   (a closed-loop contraction)
    """
    laws = _laws(q, "ribbon")
    if not datums_compatible(g.datum, laws.datum):
        raise ValueError("g must be a map over q's datum")
    return _verify(laws, g)


# ---------------------------------------------------------------------------
# Hopf-level structures: the same laws on a datum with one trivial side
#
# Over (k, H) a map k -> H is an element of H, and over (C, k) a map C -> k
# is a functional on C; the entwining map is the identity.  P3 is then vacuous
# for a copivot and P4 for a pivot, R1 for a ribbon character and R2 for a
# ribbon element.
# ---------------------------------------------------------------------------


def verify_pivot(h: HopfAlgebraData, g: Element) -> AxiomReport:
    """A pivot of h by verify_pivotal over (k, H): g grouplike (P1) with
    counit one (P2), g S^2(a) = a g (P3), and g invertible (P5)."""
    if g.host is not h:
        raise ValueError("element must be hosted in h")
    d = _degenerate_datum(trivial_hopf(), h)
    return verify_pivotal(d, HomCA(d, Matrix.from_flat(g.coords, 1)))


def verify_copivot(c: HopfAlgebraData, g: Functional) -> AxiomReport:
    """A copivot of c by verify_pivotal over (C, k): g multiplicative (P1)
    with g(1) = 1 (P2), g(c1) c2 = S^{-2}(c1) g(c2) (P4), and g
    convolution-invertible (P5)."""
    if g.host is not c:
        raise ValueError("functional must be hosted in c")
    d = _degenerate_datum(c, trivial_hopf())
    return verify_pivotal(d, HomCA(d, g.coords))


def verify_ribbon_element(h: HopfAlgebraData, rmatrix: Vector, v: Element) -> AxiomReport:
    """A ribbon element of (h, R) by verify_ribbon over (k, H) with R as its
    braiding: v central (R1), Delta(v) = (v (x) v) R21 R (R3), S(v) = v (R4),
    and v invertible (R5).  Quasitriangularity of (h, R) is the caller's
    precondition (see quasitri_check)."""
    if v.host is not h:
        raise ValueError("element must be hosted in h")
    if rmatrix.dim != h.dim * h.dim:
        raise ValueError("rmatrix must live in H (x) H")
    d = _degenerate_datum(trivial_hopf(), h)
    q = DoubleQuantumGroup(d, Matrix.from_flat(rmatrix, 1))
    return verify_ribbon(q, HomCA(d, Matrix.from_flat(v.coords, 1)))


def verify_coribbon_form(c: HopfAlgebraData, form: BilinearForm, g: Functional) -> AxiomReport:
    """A ribbon character of (c, form) by verify_ribbon over (C, k) with the
    form as its braiding: g cocentral (R2), the product rule through the form
    (R3), g S = g (R4), and g convolution-invertible (R5).
    Coquasitriangularity of (c, form) is the caller's precondition."""
    if g.host is not c or form.host_left is not c or form.host_right is not c:
        raise ValueError("form and functional must be hosted in c")
    d = _degenerate_datum(c, trivial_hopf())
    return verify_ribbon(DoubleQuantumGroup(d, form.coords), HomCA(d, g.coords))


# ---------------------------------------------------------------------------
# Induced structures on modules
# ---------------------------------------------------------------------------


def _act_by_g_op(m: EntwinedModule, g: HomCA) -> TensorOp:
    "x -> x0 . g(x1) on a module, as a step-built op."
    return TensorOp(None, (m.dim,), (m.dim,),
                    (_ap(0, m.coaction_op), _ap(1, g.op), _ap(0, m.action_op)))


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
    from .emodcat import ModuleMorphism, double_right_dual

    require_verified("pivotal", d, g)
    return ModuleMorphism(m, double_right_dual(m), _act_by_g_op(m, g))


def twist(q: DoubleQuantumGroup, g: HomCA, m: EntwinedModule) -> ModuleMorphism:
    "theta_m: m -> m, x -> x0 . g(x1); rejects unverified ribbon candidates."
    from .emodcat import ModuleMorphism

    require_verified("ribbon", q, g)
    return ModuleMorphism(m, m, _act_by_g_op(m, g))


def nat_to_hom(d: MonoidalEntwiningDatum, map_matrix: Matrix | ModuleMorphism,
               kind: str) -> HomCA:
    """Extract the C -> A map from a natural family evaluated on a standard
    module.

    kind == "ribbon": the input is an endomorphism of C (x) A and the map
    is (eps (x) id) theta(c (x) 1).  kind == "pivotal": the input sends
    A (x) C to its double right dual on the canonical basis and the map
    is (id (x) eps) beta(1 (x) c).  A ModuleMorphism is accepted in place
    of its matrix, and its op is read on split legs.
    """
    from .emodcat import ModuleMorphism

    nc, na = d.c_dim, d.a_dim
    if kind == "ribbon":
        legs, error = (nc, na), "expected an endomorphism matrix of C (x) A"
        ends = _ap(1, d.a.unit_op), _ap(0, d.c.counit_op)
    elif kind == "pivotal":
        legs, error = (na, nc), "expected a square matrix on A (x) C"
        ends = _ap(0, d.a.unit_op), _ap(1, d.c.counit_op)
    else:
        raise ValueError("kind must be 'pivotal' or 'ribbon'")
    if isinstance(map_matrix, ModuleMorphism):
        op = map_matrix.op
    else:
        op = TensorOp(map_matrix, (map_matrix.ncols,), (map_matrix.nrows,))
    flat = ((nc * na,), (nc * na,))
    if (op.in_dims, op.out_dims) != flat:
        raise ValueError(error)
    op = TensorOp(None, legs, legs, (_ap(0, op),), flat)
    return HomCA(d, pipeline_matrix((nc,), (na,), (ends[0], _ap(0, op), ends[1])))


def separable_candidate(d: MonoidalEntwiningDatum, kappa: Element, rho: Functional,
                        kind: str = "pivotal") -> MorphismCandidate:
    "The rank-one candidate g(c) = rho(c) * kappa; verification is the caller's."
    nc, na = d.c_dim, d.a_dim
    if kappa.coords.dim != na or rho.coords.ncols != nc:
        raise ValueError("kappa must live in A and rho on C")
    return MorphismCandidate(d, HomCA(d, Matrix.from_flat(kappa.coords, 1) * rho.coords), kind)


# ---------------------------------------------------------------------------
# Finder: an exact linear solve, then branch and pin on the quadratic law
# ---------------------------------------------------------------------------


def _linear_system(laws: Laws) -> tuple[Rows, Vector]:
    """The linear laws as a system a.x = b over the unknown entries of g,
    flattened as (a_out, c_in) pairs: one block per law, in the table's
    order.  A normalizing law's block is its lhs, with b = 1; any other
    law's is lop - rop, one hom_operator pass per side, merged row by row,
    with b = 0.  Rows that vanish stay; they never hold a pivot."""
    d = laws.datum
    g_dims = ((d.c_dim,), (d.a_dim,))
    a, b = Rows([], d.c_dim * d.a_dim), []
    for i, (_, scan, out, lhs, rhs) in enumerate(laws.linear):
        block = hom_operator(*g_dims, scan, out, lhs)
        if i < laws.normal:
            b += [ONE] * block.nrows
        else:
            for row, sub in zip(block, hom_operator(*g_dims, scan, out, rhs)):
                for c, x in sub.items():
                    v = row.get(c, 0) - x
                    if v:
                        row[c] = v.numerator if v.denominator == 1 else v
                    else:
                        del row[c]
            b += [ZERO] * block.nrows
        a += block
    return a, Vector(b)


class _Poly:
    """Sparse polynomial in finder parameters, degree <= 2 by construction,
    and a kernel coefficient: ``+`` and ``*`` take a _Poly, an int or a
    Fraction.  Never changed once built, so p + 0 and p * 1 return p."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})  # monomial tuple (sorted) -> coeff

    def add_term(self, mono: tuple, coeff):
        "Add coeff * mono; a kernel coefficient may be an int, a term is a Fraction."
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

    @staticmethod
    def _items(x):
        "The (monomial, coefficient) pairs of x, a _Poly or a kernel scalar."
        return x.terms.items() if isinstance(x, _Poly) else (((), x),)

    def __add__(self, other) -> "_Poly":
        if not other:
            return self
        out = _Poly(self.terms)
        for m, c in self._items(other):
            out.add_term(m, c)
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "_Poly":
        if other == 1:
            return self
        out = _Poly()
        for m1, c1 in self.terms.items():
            for m2, c2 in self._items(other):
                out.add_term(m1 + m2, c1 * c2)
        return out

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def substitute(self, assignment: dict) -> "_Poly":
        "Replace each assigned variable by its _Poly value, of degree <= 1."
        if self.variables().isdisjoint(assignment):
            return self
        out = _Poly()
        for mono, coeff in self.terms.items():
            term = _Poly({tuple(v for v in mono if v not in assignment): coeff})
            out = out + prod((assignment[v] for v in mono if v in assignment), start=term)
        return out


def _rational_roots_deg2(poly: _Poly, var: int) -> list[Fraction]:
    """Rational roots of a polynomial of degree exactly 2 in var alone.

    _branches only gets here with such polynomials: it pins every residual
    of degree 1 first, ends a branch on a nonzero constant and drops the
    zero residuals.
    """
    c0 = poly.terms.get((), ZERO)
    c1 = poly.terms.get((var,), ZERO)
    c2 = poly.terms[(var, var)]
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    # a reduced rational is a square iff its numerator and denominator are
    sq = Fraction(isqrt(disc.numerator), isqrt(disc.denominator))
    if sq * sq != disc:
        return []
    return sorted({(-c1 + sq) / (2 * c2), (-c1 - sq) / (2 * c2)})


def _quadratic_residuals(laws: Laws, family) -> list[_Poly]:
    """The quadratic law of the table evaluated on the affine family
    g0 + sum t_s h_s: both sides run once per batch on one family op, so
    each output entry is a polynomial in t and its residual, rhs - lhs, has
    degree <= 2.  Each distinct nonzero residual is returned once, in order
    of first occurrence."""
    nc, na = laws.datum.c_dim, laws.datum.a_dim
    # the family op C -> A: each entry a _Poly of degree <= 1, t_s the variable s
    entries = [_Poly() for _ in range(na * nc)]
    for s, v in enumerate([family.particular, *family.nullspace_basis]):
        for i, x in enumerate(v):
            entries[i].add_term((s - 1,) if s else (), x)
    g = KernelOp((nc,), (na,), {c: [(a, p) for a in range(na) if (p := entries[a * nc + c])]
                                for c in range(nc)})
    _, scan, _, linear_side, bilinear_side = laws.quadratic
    distinct: dict[frozenset, _Poly] = {}
    for batch in basis_batches(scan):
        res = run_batch(scan, batch, bilinear_side(g))
        for key, val in run_batch(scan, batch, linear_side(g)).items():
            res[key] = res.get(key, 0) + val * -1
        distinct.update((frozenset(p.terms.items()), p) for p in res.values() if p)
    return list(distinct.values())


def _affine_pin(p: _Poly) -> tuple:
    "The pin (v, e) that solves the degree-1 polynomial p for its last variable v."
    v = max(p.variables())
    c = p.terms[(v,)]
    return v, _Poly({m: -x / c for m, x in p.terms.items() if m != (v,)})


def _split(live: list[_Poly]) -> list | None:
    """The pins of a branch's children, by the first rule that applies: a
    degree-1 residual pins its last variable; a residual whose monomials
    all contain v splits into v = 0 and rest = 0; a residual in one
    variable splits on its rational roots.  None leaves the branch open."""
    for p in live:
        if p.degree() == 1:
            return [_affine_pin(p)]
    for p in live:
        common = set.intersection(*(set(m) for m in p.terms))
        if common:
            v = max(common)
            rest = _Poly({m[:m.index(v)] + m[m.index(v) + 1:]: x for m, x in p.terms.items()})
            return [(v, _Poly()), _affine_pin(rest)]
    for p in live:
        if len(p.variables()) == 1:
            v, = p.variables()
            return [(v, _Poly({(): r})) for r in _rational_roots_deg2(p, v)]
    return None


def _branches(residuals: list[_Poly], pins: tuple = ()):
    """Yield the leaves of the branch-and-pin recursion on the residuals, as
    tuples of pins (v, e): parameter v equals the affine _Poly e in the
    parameters pinned after it or left free.  A nonzero constant ends a
    branch with no leaf.  A leaf that pins every parameter is a point
    where every residual vanishes; any other leaf is open.  Each step pins
    a parameter, so k parameters give at most 2^k leaves."""
    live = [p for p in residuals if p]
    if any(p.degree() == 0 for p in live):
        return
    children = _split(live)
    if children is None:
        yield pins
    for v, e in children or ():
        yield from _branches([p.substitute({v: e}) for p in live], (*pins, (v, e)))


def find_morphisms(target, kind: str, max_params: int = 4) -> FinderResult:
    """Solve the linear laws into an exact affine family, then run the
    branch-and-pin recursion of _branches on the quadratic law over it.

    Every listed solution passes its verifier.  The status says what the
    list proves:
    - "complete": every solution over Q is listed.  The linear stage was
      inconsistent, its solution was unique, or every branch closed on a
      point; the points that pass the verifier are listed;
    - "parametric": a branch stayed open, so solutions may be missing.
      The verified points are listed with the verified samples of each
      open branch, and the affine family is returned;
    - "undecided": the family has more than max_params parameters, and
      only verified samples of it are listed.
    """
    laws = _laws(target, kind)
    d = laws.datum
    # the module's verifier by name, so that a wrapped or patched one sees every call
    verify = verify_pivotal if kind == "pivotal" else verify_ribbon
    family = solve_affine(*_linear_system(laws))
    if family is None:
        return FinderResult("complete", [], None, "linear stage inconsistent")
    k = family.dimension

    def samples(pins: tuple) -> list[dict]:
        """A leaf's sample assignments: every free parameter at 0, then +-1
        along each free axis, with the pins evaluated last-pinned first."""
        free = [s for s in range(k) if s not in dict(pins)]
        out = []
        for trial in [{}] + [{s: x} for s in free for x in (ONE, -ONE)]:
            t = {s: trial.get(s, ZERO) for s in free}
            for v, e in reversed(pins):
                t[v] = sum((c * prod(t[u] for u in m) for m, c in e.terms.items()), ZERO)
            out.append(t)
        return out

    def verified(assignments) -> list[MorphismCandidate]:
        "The distinct maps g0 + sum t_s h_s of the assignments that verify."
        seen: set = set()
        out = []
        for t in assignments:
            v = list(family.particular)
            for s, h in enumerate(family.nullspace_basis):
                if t.get(s, ZERO) != 0:
                    v = [a + t[s] * b for a, b in zip(v, h)]
            g = HomCA(d, Matrix.from_flat(v, d.c_dim))
            if g.map not in seen:
                seen.add(g.map)
                if verify(target, g).overall:
                    out.append(MorphismCandidate(d, g, kind))
        return out

    if k == 0:
        sols = verified([{}])
        return FinderResult("complete", sols, family, "unique linear solution "
                            + ("verified" if sols else "fails verification"))
    if k > max_params:
        return FinderResult("undecided", verified(samples(())), family,
                            f"affine family has {k} parameters (> max_params)")

    leaves = list(_branches(_quadratic_residuals(laws, family)))
    sols = verified(t for pins in leaves for t in samples(pins))
    if all(len(pins) == k for pins in leaves):
        return FinderResult("complete", sols, family,
                            "the quadratic stage closed every branch on a point")
    return FinderResult("parametric", sols, family,
                        "a branch of the quadratic stage stayed open; returning the "
                        "affine family with its verified points and samples")
