"""Entwined modules: standard constructions, duals, double duals, braiding."""

from fractions import Fraction

import pytest

from entwine import corpus, fileformat
from entwine.emodcat import (
    EntwinedModule,
    ModuleMorphism,
    _pairing_copairing,
    action_endomorphisms,
    braiding,
    braiding_steps,
    check_duality,
    check_entwined_module,
    double_right_dual,
    extend_MC,
    left_dual,
    right_dual,
    std_module_AC,
    std_module_CA,
    tensor_modules,
    tensor_unit,
    transpose,
)
from entwine.entwining import (
    DoubleQuantumGroup,
    EntwiningMap,
    MonoidalEntwiningDatum,
    datums_compatible,
)
from entwine.exactla import (
    Cap,
    Cup,
    Matrix,
    TensorOp,
    Vector,
    kron,
    matrix_from_columns_fn,
    pipeline_matrix,
    sv_apply,
    sv_permute,
)
from entwine.hopfcore import HopfAlgebraData, trivial_hopf
from entwine.report import _ap

from oracles import check_module_over_algebra, pipeline


def _col(op, legs):
    "The column of op at the basis tuple legs: (output legs, coefficient) pairs."
    return pipeline(op.in_dims, legs, _ap(0, op)).items()


def _all_std_modules(d):
    return {"CA": std_module_CA(d), "AC": std_module_AC(d), "unit": tensor_unit(d)}


def test_std_modules_pass_on_corpus(monoidal_datums):
    for name, d in monoidal_datums.items():
        for mk, m in _all_std_modules(d).items():
            assert check_entwined_module(m).overall, (name, mk)


def test_corrupted_action_fails_with_witness(yd_h4):
    m = std_module_CA(yd_h4)
    rows = [list(r) for r in m.action.rows()]
    rows[0][1] += 1
    broken = EntwinedModule(yd_h4, m.dim, Matrix(rows), m.coaction)
    rep = check_entwined_module(broken)
    assert not rep.overall
    for item in rep.items:
        if not item.passed:
            assert item.witness is not None


def test_flip_std_ac_action_undecorated(long_kz2, kz2):
    # over the flip the action is (a (x) c) . x = ax (x) c
    m = std_module_AC(long_kz2)
    for a in range(2):
        for c in range(2):
            for x in range(2):
                got = m.action.col((a * 2 + c) * 2 + x)
                prod = kz2.mult.col(a * 2 + x)
                expect = [Fraction(0)] * 4
                for i, v in enumerate(prod):
                    expect[i * 2 + c] = v
                assert got == Vector(expect)


def test_extend_regular_module_equals_std_ac(monoidal_datums):
    for name, d in monoidal_datums.items():
        m = extend_MC(d.a_dim, d.a.mult, d)
        std = std_module_AC(d)
        assert m.action == std.action and m.coaction == std.coaction, name


def test_tensor_with_unit_is_identity(yd_h4):
    m = std_module_CA(yd_h4)
    u = tensor_unit(yd_h4)
    t = tensor_modules(u, m)
    # 1 (x) m has the same structure matrices under the index collapse
    assert t.dim == m.dim
    assert t.action == m.action and t.coaction == m.coaction
    t2 = tensor_modules(m, u)
    assert t2.action == m.action and t2.coaction == m.coaction


def test_tensor_modules_pass_checker(monoidal_datums):
    for name, d in monoidal_datums.items():
        m = std_module_CA(d)
        n = std_module_AC(d)
        assert check_entwined_module(tensor_modules(m, n)).overall, name


def test_tensor_associative_under_reindexing(long_kz2):
    m = std_module_CA(long_kz2)
    n = std_module_AC(long_kz2)
    p = tensor_unit(long_kz2)
    p = tensor_modules(n, n)
    left = tensor_modules(tensor_modules(m, n), p)
    right = tensor_modules(m, tensor_modules(n, p))
    assert left.action == right.action and left.coaction == right.coaction


def test_duality_on_corpus(monoidal_datums):
    for name, d in monoidal_datums.items():
        for mk, m in _all_std_modules(d).items():
            for dualize in (left_dual, right_dual):
                dd = dualize(m)
                assert check_entwined_module(dd.dual_module).overall, (name, mk)
                assert check_duality(m, dd).overall, (name, mk, dd.side)


@pytest.mark.parametrize("dim", [1, 2, 4, 16])
def test_pairing_and_copairing_match_cap_and_cup(dim):
    ev, coev = _pairing_copairing(dim)
    assert ev == pipeline_matrix((dim, dim), (), (_ap(0, Cap(dim)),))
    assert coev == pipeline_matrix((), (dim, dim), (_ap(0, Cup(dim)),))


def test_dual_of_unit_is_unit(yd_h4):
    u = tensor_unit(yd_h4)
    dd = left_dual(u)
    assert dd.dual_module.action == u.action
    assert dd.dual_module.coaction == u.coaction
    assert dd.ev == Matrix.identity(1)
    assert dd.coev == Matrix.identity(1)


def test_flip_left_dual_closed_form(long_kz2, kz2):
    # over the flip the dual coaction twists only by the antipode of C
    m = std_module_CA(long_kz2)
    dd = left_dual(m)

    def expect_coaction_col(t):
        (i,) = t
        out = {}
        for j in range(m.dim):
            for (u, v), c in _col(m.coaction_op, (j,)):
                if u != i:
                    continue
                for s in range(2):
                    w = kz2.antipode.entry(s, v)
                    if w != 0:
                        out[(j, s)] = out.get((j, s), Fraction(0)) + c * w
        return out

    expect = matrix_from_columns_fn((m.dim,), (m.dim, 2), expect_coaction_col)
    assert dd.dual_module.coaction == expect


def _non_identity_endomorphisms(case):
    """std_module_CA and two distinct non-identity endomorphisms of it.

    On yd_kz3 they come from the action family.  On yd_h4 that family is
    the identity alone, so they are c (x) a -> theta(c_1) c_2 (x) a for two
    coordinate functionals theta."""
    if case == "yd_kz3":
        m = std_module_CA(corpus.yd_datum(corpus.cyclic_group_algebra(3)))
        f, g = action_endomorphisms(m)[1:]
    else:
        d = corpus.yd_datum(corpus.sweedler_h4())
        m = std_module_CA(d)
        f, g = (
            ModuleMorphism(m, m, matrix_from_columns_fn((4, 4), (4, 4), lambda t, k=k: pipeline(
                (4, 4), t, _ap(0, d.c.comul_op),
                _ap(0, TensorOp(Matrix([[int(i == k) for i in range(4)]]), (4,), ())))))
            for k in (0, 1)
        )
    assert Matrix.identity(m.dim) not in (f.map, g.map) and f.map != g.map
    return m, f, g


def test_action_endomorphisms_lists_each_map_once():
    # the action of the unit is the identity, listed first already
    for h, n_maps in ((corpus.sweedler_h4(), 1), (corpus.cyclic_group_algebra(3), 3)):
        endos = action_endomorphisms(std_module_CA(corpus.yd_datum(h)))
        assert endos[0].map == Matrix.identity(h.dim * h.dim)
        assert len({f.map for f in endos}) == len(endos) == n_maps


def test_transpose_laws():
    for case in ("yd_kz3", "yd_h4"):
        m, f, g = _non_identity_endomorphisms(case)
        ident = action_endomorphisms(m)[0]
        assert transpose(ident, "left").map == Matrix.identity(m.dim)
        tf = transpose(f, "left")
        tg = transpose(g, "left")
        comp = ModuleMorphism(f.source, g.target, g.map * f.map)
        assert transpose(comp, "left").map == tf.map * tg.map
        # transpose on dual bases is the matrix transpose
        assert tf.map == f.map.transpose()


def test_transpose_tr2_squares():
    for case in ("yd_kz3", "yd_h4"):
        m, f, _ = _non_identity_endomorphisms(case)
        tf = transpose(f, "left")
        dd = left_dual(m)
        eye = Matrix.identity(m.dim)
        assert dd.ev * kron(tf.map, eye) == dd.ev * kron(eye, f.map)
        assert kron(eye, tf.map) * dd.coev == kron(f.map, eye) * dd.coev


def test_double_right_dual_matches_literal_iteration(monoidal_datums):
    for name, d in monoidal_datums.items():
        m = std_module_CA(d)
        twice = right_dual(right_dual(m).dual_module).dual_module
        dd = double_right_dual(m)
        assert twice.action == dd.action and twice.coaction == dd.coaction, name


def test_double_right_dual_trivial_when_antipode_involutive(long_kz2):
    m = std_module_CA(long_kz2)
    dd = double_right_dual(m)
    assert dd.action == m.action and dd.coaction == m.coaction


def test_double_right_dual_nontrivial_on_h4(yd_h4):
    m = std_module_CA(yd_h4)
    dd = double_right_dual(m)
    assert dd.action != m.action
    u = tensor_unit(yd_h4)
    du = double_right_dual(u)
    assert du.action == u.action and du.coaction == u.coaction


def test_braiding_yd_closed_form(yd_dqg_h4):
    # against the conjugation-datum closed form m (x) n -> n0 (x) m . n1
    q = yd_dqg_h4
    d = q.datum
    m = std_module_CA(d)
    n = std_module_AC(d)
    br = braiding(m, n, q)

    def closed(t):
        return pipeline(
            (m.dim, n.dim), t,
            lambda s: sv_apply(s, 1, n.coaction_op),
            lambda s: sv_permute(s, (1, 0, 2)),
            lambda s: sv_apply(s, 1, m.action_op),
        )

    assert br == matrix_from_columns_fn((m.dim, n.dim), (n.dim, m.dim), closed)


def test_braiding_long_closed_form(dqgs, kz2):
    # on the braided flip datum the braiding is the form-scaled, swapped
    # action: m (x) n -> beta(m1, n1) n0.R2 (x) m0.R1
    q = dqgs["long_dqg_kz2"]
    d = q.datum
    r = corpus.z2_triangular_rmatrix(kz2)
    b = d.c
    form = corpus.z2_dual_triangular_form(b, r)
    m = std_module_CA(d)
    n = std_module_AC(d)

    def closed(t):
        out = {}
        for (m0, m1), cm in _col(m.coaction_op, (t[0],)):
            for (n0, n1), cn in _col(n.coaction_op, (t[1],)):
                beta = form.value(m1, n1)
                if beta == 0:
                    continue
                for u in range(2):
                    for v in range(2):
                        x = r[u * 2 + v]
                        if x == 0:
                            continue
                        for (nn,), ca in _col(n.action_op, (n0, v)):
                            for (mm,), cb in _col(m.action_op, (m0, u)):
                                key = (nn, mm)
                                val = out.get(key, Fraction(0)) + cm * cn * beta * x * ca * cb
                                if val == 0:
                                    out.pop(key, None)
                                else:
                                    out[key] = val
        return out

    expect = matrix_from_columns_fn((m.dim, n.dim), (n.dim, m.dim), closed)
    assert braiding(m, n, q) == expect


def test_braiding_long_trivial_structures_is_flip(kz2):
    # trivial R-matrix and counit-squared form degrade the braiding to the flip
    b = corpus.dual_cyclic_group_algebra(2)
    from entwine.hopfcore import BilinearForm

    r = Vector([1, 0, 0, 0])
    eps2 = BilinearForm(
        b, b,
        Matrix([[b.counit.entry(0, i) * b.counit.entry(0, j)
                 for i in range(2) for j in range(2)]]),
    )
    q = corpus.long_dqg(kz2, r, b, eps2)
    from entwine.entwining import check_double_quantum_group

    assert check_double_quantum_group(q).overall
    m = std_module_CA(q.datum)
    n = std_module_AC(q.datum)
    flip = matrix_from_columns_fn(
        (m.dim, n.dim), (n.dim, m.dim), lambda t: {(t[1], t[0]): Fraction(1)}
    )
    assert braiding(m, n, q) == flip


def test_braiding_flip_for_trivial_r(kz2):
    ck = trivial_hopf()
    d = MonoidalEntwiningDatum(EntwiningMap(ck, kz2, Matrix.identity(2)))
    q = DoubleQuantumGroup(d, Matrix([[1], [0], [0], [0]]))
    m = std_module_CA(d)
    n = std_module_AC(d)
    br = braiding(m, n, q)
    flip = matrix_from_columns_fn(
        (m.dim, n.dim), (n.dim, m.dim), lambda t: {(t[1], t[0]): Fraction(1)}
    )
    assert br == flip


def test_braiding_is_invertible_morphism_on_corpus(dqgs):
    from entwine.exactla import invert

    for name, q in dqgs.items():
        d = q.datum
        m = std_module_CA(d)
        n = std_module_AC(d)
        # construction validates morphism-ness
        bm = ModuleMorphism(tensor_modules(m, n), tensor_modules(n, m), braiding(m, n, q))
        assert invert(bm.map) * bm.map == Matrix.identity(m.dim * n.dim), name


def test_braiding_naturality_against_endomorphisms(yd_dqg_h4):
    q = yd_dqg_h4
    m = std_module_CA(q.datum)
    n = std_module_AC(q.datum)
    br = braiding(m, n, q)
    eye_n = Matrix.identity(n.dim)
    for f in action_endomorphisms(m):
        assert kron(eye_n, f.map) * br == br * kron(f.map, eye_n)
    br2 = braiding(n, m, q)
    eye_m = Matrix.identity(m.dim)
    for f in action_endomorphisms(n):
        assert kron(eye_m, f.map) * br2 == br2 * kron(f.map, eye_m)


def test_hexagons_small(dqgs):
    q = dqgs["long_dqg_kz2"]
    d = q.datum
    m, n, p = std_module_CA(d), std_module_AC(d), std_module_CA(d)
    lhs = braiding(tensor_modules(m, n), p, q)
    rhs = kron(braiding(m, p, q), Matrix.identity(n.dim)) * kron(
        Matrix.identity(m.dim), braiding(n, p, q)
    )
    assert lhs == rhs
    lhs = braiding(m, tensor_modules(n, p), q)
    rhs = kron(Matrix.identity(n.dim), braiding(m, p, q)) * kron(
        braiding(m, n, q), Matrix.identity(p.dim)
    )
    assert lhs == rhs


def test_hexagon_split_left_h4_columnwise(yd_dqg_h4):
    q = yd_dqg_h4
    d = q.datum
    m, n, p = std_module_CA(d), std_module_AC(d), std_module_CA(d)
    qmn = tensor_modules(m, n)
    steps = braiding_steps(qmn, p, q)
    br_mp = TensorOp(braiding(m, p, q), (m.dim, p.dim), (p.dim, m.dim))
    br_np = TensorOp(braiding(n, p, q), (n.dim, p.dim), (p.dim, n.dim))
    for mi in range(m.dim):
        for ni in range(n.dim):
            for pi in range(p.dim):
                lhs = {
                    (pp, qq // n.dim, qq % n.dim): v
                    for (pp, qq), v in pipeline((m.dim * n.dim, p.dim), (mi * n.dim + ni, pi),
                                                *steps).items()
                }
                rhs = pipeline(
                    (m.dim, n.dim, p.dim), (mi, ni, pi),
                    lambda s: sv_apply(s, 1, br_np),
                    lambda s: sv_apply(s, 0, br_mp),
                )
                assert lhs == rhs


def test_braiding_naturality_report(yd_dqg_h4, dqgs):
    from entwine.emodcat import check_braiding_naturality

    for q in (yd_dqg_h4, dqgs["long_dqg_kz2"]):
        m = std_module_CA(q.datum)
        n = std_module_AC(q.datum)
        extra = action_endomorphisms(m)[:1]
        rep = check_braiding_naturality(m, n, q, morphisms=extra)
        assert rep.overall


def test_module_morphism_rejects_invalid(yd_h4):
    m = std_module_CA(yd_h4)
    n = std_module_AC(yd_h4)
    bad = Matrix.identity(m.dim)
    with pytest.raises(ValueError):
        ModuleMorphism(m, n, bad)


def test_duality_reports_the_failed_square_of_ev_and_coev(yd_h4):
    from entwine.emodcat import DualityData, NotAMorphismError

    m = std_module_CA(yd_h4)
    dd = left_dual(m)
    # the pairing weighted by position is not a module map
    bad_ev = Matrix([[x * (i + 1) for i, x in enumerate(dd.ev.row(0))]])
    bad_coev = Matrix([[x * (i + 1)] for i, x in enumerate(dd.coev.col(0))])
    rep = check_duality(m, DualityData(dd.dual_module, bad_ev, bad_coev, "left"))
    src, tgt = tensor_modules(dd.dual_module, m), tensor_modules(m, dd.dual_module)
    for axiom_id, args in (("D3_ev_morphism", (src, tensor_unit(yd_h4), bad_ev)),
                           ("D4_coev_morphism", (tensor_unit(yd_h4), tgt, bad_coev))):
        with pytest.raises(NotAMorphismError) as err:
            ModuleMorphism(*args)
        w = rep.item(axiom_id).witness
        assert w == err.value.item.witness
        assert w.basis and w.lhs != w.rhs


@pytest.mark.parametrize("dualize", [left_dual, right_dual])
def test_duality_with_a_dual_over_another_datum_is_an_error_before_any_scan(
        yd_h4, long_h4, dualize, monkeypatch):
    from entwine import emodcat

    m = std_module_CA(yd_h4)
    # a 16-dimensional dual with the pairing of the right size, over long_h4
    dd = dualize(std_module_CA(long_h4))
    assert not datums_compatible(m.datum, dd.dual_module.datum)
    scans = []
    monkeypatch.setattr(emodcat, "compare_item", lambda *args: scans.append(args))
    with pytest.raises(ValueError, match="different datums"):
        check_duality(m, dd)
    assert scans == []


@pytest.mark.parametrize("dualize", [left_dual, right_dual])
@pytest.mark.parametrize("scaled, k", [("ev", 2), ("coev", 3)])
def test_scaled_ev_or_coev_fails_both_snakes(yd_h4, dualize, scaled, k):
    from entwine.emodcat import DualityData

    m = std_module_CA(yd_h4)
    dd = dualize(m)
    ev = dd.ev.scale(k) if scaled == "ev" else dd.ev
    coev = dd.coev.scale(k) if scaled == "coev" else dd.coev
    # a scalar multiple of a morphism is a morphism: only the snakes see it
    rep = check_duality(m, DualityData(dd.dual_module, ev, coev, dd.side))
    assert rep.failed_ids() == ["D1_snake_object", "D2_snake_dual"]
    e0 = Vector.basis(m.dim, 0)
    for axiom_id in ("D1_snake_object", "D2_snake_dual"):
        w = rep.item(axiom_id).witness
        assert (w.basis, w.lhs, w.rhs) == ((0,), e0.scale(k), e0)


@pytest.mark.parametrize("dualize, d1_basis, d2_basis",
                         [(left_dual, 1, 0), (right_dual, 0, 1)])
@pytest.mark.parametrize("changed", ["ev", "coev"])
def test_off_diagonal_pairing_tells_the_two_snakes_apart(yd_h4, dualize, d1_basis,
                                                         d2_basis, changed):
    from entwine.emodcat import DualityData

    m = std_module_CA(yd_h4)
    dd = dualize(m)
    dim = m.dim
    # one extra pairing entry between the first and the second leg's basis
    # vectors 0 and 1: each snake then fails on the basis vector its
    # orientation feeds into that entry
    ev, coev = dd.ev, dd.coev
    if changed == "ev":
        row = list(ev.row(0))
        row[1] = 1
        ev = Matrix([row])
    else:
        col = list(coev.col(0))
        col[1] = 1
        coev = Matrix([[x] for x in col])
    rep = check_duality(m, DualityData(dd.dual_module, ev, coev, dd.side))
    both = Vector.basis(dim, 0) + Vector.basis(dim, 1)
    for axiom_id, j in (("D1_snake_object", d1_basis), ("D2_snake_dual", d2_basis)):
        w = rep.item(axiom_id).witness
        assert (w.basis, w.lhs, w.rhs) == ((j,), both, Vector.basis(dim, j))


def test_braiding_naturality_holds_for_any_linear_r(yd_dqg_h4):
    """N1/N2 cannot fail: for an A-linear, C-colinear f the braiding built
    from any linear R commutes with f.  A random R breaks the double
    structure's axioms but not naturality."""
    import random

    from entwine.emodcat import check_braiding_naturality
    from entwine.entwining import check_double_quantum_group

    d = yd_dqg_h4.datum
    rng = random.Random(2016)
    rows = [[0] * 16 for _ in range(16)]
    for _ in range(12):
        rows[rng.randrange(16)][rng.randrange(16)] = rng.choice([-2, -1, 1, 2, 3])
    q = DoubleQuantumGroup(d, Matrix(rows))
    failed = set(check_double_quantum_group(q).failed_ids())
    assert {"E07_coact", "E08_act", "E09_split_right", "E10a_split_left"} <= failed
    m, n = std_module_CA(d), std_module_AC(d)
    # endomorphisms beyond the action family: c (x) a -> theta(c_1) c_2 (x) a
    # on C (x) A and a (x) c -> b a (x) c on A (x) C
    extra = []
    for k in range(4):
        theta = TensorOp(Matrix([[int(i == k) for i in range(4)]]), (4,), ())
        b = TensorOp(Matrix([[int(i == k)] for i in range(4)]), (), (4,))
        extra += [
            ModuleMorphism(m, m, matrix_from_columns_fn(
                (4, 4), (4, 4), lambda t: pipeline((4, 4), t, _ap(0, d.c.comul_op),
                                                   _ap(0, theta)))),
            ModuleMorphism(n, n, matrix_from_columns_fn(
                (4, 4), (4, 4), lambda t: pipeline((4, 4), t, _ap(0, b), _ap(0, d.a.mul_op)))),
        ]
    rep = check_braiding_naturality(m, n, q, morphisms=extra)
    assert rep.overall
    assert [it.axiom_id for it in rep.items] == ["N1_left_slot", "N2_right_slot"]


# ---------------------------------------------------------------------------
# M01-M05 fail: one-entry perturbations of std_module_CA(yd_h4).  The
# expected witness comes from the matrices of both sides, composed with kron
# and products instead of the kernel: the first column (lexicographic in the
# basis tuple) where they differ, and those two columns.
# ---------------------------------------------------------------------------


def _bumped(m, which, row, col, delta):
    mat = getattr(m, which)
    rows = [list(r) for r in mat.rows()]
    rows[row][col] += delta
    parts = {"action": m.action, "coaction": m.coaction, which: Matrix(rows)}
    return EntwinedModule(m.datum, m.dim, parts["action"], parts["coaction"], m.basis_names)


def _module_sides(m, axiom_id):
    "The two sides of a module axiom as (in_dims, lhs matrix, rhs matrix)."
    d = m.datum
    dim, na, nc = m.dim, d.a_dim, d.c_dim
    eye_m, eye_a, eye_c = Matrix.identity(dim), Matrix.identity(na), Matrix.identity(nc)
    act, coact = m.action, m.coaction
    return {
        "M01_action_assoc": ((dim, na, na), act * kron(eye_m, d.a.mult),
                             act * kron(act, eye_a)),
        "M02_action_unit": ((dim,), act * kron(eye_m, Matrix([[x] for x in d.a.unit])), eye_m),
        "M03_coassoc": ((dim,), kron(coact, eye_c) * coact, kron(eye_m, d.c.comult) * coact),
        "M04_counit": ((dim,), kron(eye_m, d.c.counit) * coact, eye_m),
        "M05_entwined": ((dim, na), coact * act,
                         kron(act, eye_c) * kron(eye_m, d.phi) * kron(coact, eye_a)),
    }[axiom_id]


def _first_mismatch(in_dims, lhs, rhs):
    from entwine.exactla import unflatten_index

    for j in range(lhs.ncols):
        if lhs.col(j) != rhs.col(j):
            return unflatten_index(in_dims, j), lhs.col(j), rhs.col(j)
    return None


def _e(*coords):
    return Vector(list(coords) + [0] * (16 - len(coords)))


# basis of std_module_CA(yd_h4): m_(4c + a) = c (x) a over 1, e, x, y
@pytest.mark.parametrize("axiom_id, which, row, col, delta, literal", [
    # m0 . e gains m0: at (m0, e, e), m0 . (e e) = m0 but (m0 . e) . e = 2 m0 + m1
    ("M01_action_assoc", "action", 0, 1, 1, ((0, 1, 1), _e(1), _e(2, 1))),
    # m0 . 1 = m0 + 2 m1
    ("M02_action_unit", "action", 1, 0, 2, ((0,), _e(1, 2), _e(1))),
    # rho(m0) gains m1 (x) x, whose counit is 0: M04 still holds
    ("M03_coassoc", "coaction", 1 * 4 + 2, 0, 1, None),
    # rho(m0) gains -m1 (x) 1, so (id (x) eps) rho(m0) = m0 - m1
    ("M04_counit", "coaction", 1 * 4 + 0, 0, -1, ((0,), _e(1, -1), _e(1))),
    # m0 . e gains m0 / 2; the entwined square first differs at (m0, x)
    ("M05_entwined", "action", 0, 1, Fraction(1, 2), None),
])
def test_one_entry_perturbation_fails_module_axiom(yd_h4, axiom_id, which, row, col, delta,
                                                   literal):
    m = _bumped(std_module_CA(yd_h4), which, row, col, delta)
    item = check_entwined_module(m).item(axiom_id)
    assert not item.passed
    expected = _first_mismatch(*_module_sides(m, axiom_id))
    assert expected is not None
    w = item.witness
    assert (w.basis, w.lhs, w.rhs) == expected
    if literal is not None:
        assert expected == literal
    if axiom_id == "M03_coassoc":
        assert check_entwined_module(m).item("M04_counit").passed
    if axiom_id == "M05_entwined":
        assert w.basis == (0, 2)


def test_module_sides_oracle_agrees_on_the_unperturbed_module(yd_h4):
    m = std_module_CA(yd_h4)
    assert check_entwined_module(m).overall
    for axiom_id in ("M01_action_assoc", "M02_action_unit", "M03_coassoc", "M04_counit",
                     "M05_entwined"):
        assert _first_mismatch(*_module_sides(m, axiom_id)) is None, axiom_id


# The regular right module of kz2 (basis m0 = 1, m1 = g; m . a = ma, so the
# action matrix is the product's, column m * 2 + a) under a one-entry +1
# perturbation.  check_module_over_algebra scans (m, a, b) for RM1,
# m . (ab) against (m . a) . b, and m for RM2, m . 1 against m.
#  - RM1, m0 . g stays m1 but m1 . g = m0 gains m1 (column 3, row 1).
#    (m0, 1, 1), (m0, 1, g) and (m0, g, 1) read only m0 . 1, m0 . g and
#    m1 . 1; at (m0, g, g), m0 . (g g) = m0 . 1 = m0 against
#    (m0 . g) . g = m1 . g = m0 + m1.  RM2 reads m . 1 only, and passes.
#  - RM2, m0 . 1 = m0 gains m0 (column 0, row 0): at m0, m0 . 1 = 2 m0
#    against m0.  RM1 fails too, at once: at (m0, 1, 1),
#    m0 . (1 1) = 2 m0 against (m0 . 1) . 1 = 2 (2 m0) = 4 m0.
@pytest.mark.parametrize("row, col, failed", [
    (1, 3, {"RM1_assoc": ((0, 1, 1), [1, 0], [1, 1])}),
    (0, 0, {"RM1_assoc": ((0, 0, 0), [2, 0], [4, 0]), "RM2_unit": ((0,), [2, 0], [1, 0])}),
])
def test_one_entry_perturbation_fails_module_over_algebra_axiom(kz2, row, col, failed):
    assert check_module_over_algebra(kz2, 2, kz2.mult).overall
    rows = [list(r) for r in kz2.mult.rows()]
    rows[row][col] += 1
    rep = check_module_over_algebra(kz2, 2, Matrix(rows))
    assert rep.failed_ids() == sorted(failed)
    for axiom_id, (basis, lhs, rhs) in failed.items():
        w = rep.item(axiom_id).witness
        assert (w.basis, w.lhs, w.rhs) == (basis, Vector(lhs), Vector(rhs))


def test_modules_meet_on_a_datum_reloaded_from_file(yd_h4):
    # the reloaded datum shares no object with the corpus one, so
    # datums_compatible compares phi and each structure map of both sides
    again = MonoidalEntwiningDatum(fileformat.loads(fileformat.dumps(yd_h4)))
    assert again.a is not yd_h4.a and again.c is not yd_h4.c
    m, n = std_module_CA(again), std_module_CA(yd_h4)
    assert check_entwined_module(tensor_modules(m, n)).overall
    assert check_entwined_module(tensor_modules(n, m)).overall
    assert ModuleMorphism(m, n, Matrix.identity(n.dim)).map == Matrix.identity(n.dim)
    # the same phi over an A whose antipode differs in one entry
    a = yd_h4.a
    s = [list(r) for r in a.antipode.rows()]
    i, j = next((i, j) for i, r in enumerate(s) for j, x in enumerate(r) if x)
    s[i][j] *= 2
    other = MonoidalEntwiningDatum(
        EntwiningMap(yd_h4.c, HopfAlgebraData(a.algebra, a.coalgebra, Matrix(s)), yd_h4.phi))
    assert not datums_compatible(other, yd_h4)
    with pytest.raises(ValueError):
        tensor_modules(std_module_CA(other), n)
    with pytest.raises(ValueError):
        ModuleMorphism(std_module_CA(other), n, Matrix.identity(n.dim))
