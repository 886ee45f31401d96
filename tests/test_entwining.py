"""Entwining axioms, double structures, convolution algebras."""

import random
from fractions import Fraction

import pytest

from entwine import corpus
from entwine.entwining import (
    DoubleQuantumGroup,
    EntwiningMap,
    HomCA,
    MonoidalEntwiningDatum,
    _conv2_op,
    _conv2_side,
    _conv_side,
    _operator,
    check_antipode_compat,
    check_double_quantum_group,
    check_entwining,
    check_monoidal_datum,
    conv2_inverse,
    conv2_product,
    conv2_unit,
    conv_inverse,
    conv_product,
    conv_unit,
)
from entwine.exactla import Matrix, matrix_from_columns_fn


def _mutate_phi(e: EntwiningMap, i: int, j: int) -> EntwiningMap:
    rows = [list(r) for r in e.phi.rows()]
    rows[i][j] += 1
    return EntwiningMap(e.c, e.a, Matrix(rows))


def test_flip_passes_basic_axioms(h4, kz2):
    for c, a in ((h4, h4), (kz2, kz2), (h4, kz2)):
        assert check_entwining(corpus.flip_entwining(c, a)).overall


def test_yd_entwining_passes(h4, kz2):
    assert check_entwining(corpus.yd_datum(h4).base).overall
    assert check_entwining(corpus.yd_datum(kz2).base).overall


def test_yd_on_cocommutative_is_flip(kz2):
    # conjugation collapses to the flip when the algebra is cocommutative
    assert corpus.yd_datum(kz2).phi == corpus.flip_entwining(kz2, kz2).phi


def test_hopf_module_entwining_passes(h4, kz2):
    assert check_entwining(corpus.hopf_module_datum(h4)).overall
    assert check_entwining(corpus.hopf_module_datum(kz2)).overall


def test_hopf_module_datum_is_not_monoidal(h4):
    d = MonoidalEntwiningDatum(corpus.hopf_module_datum(h4))
    assert not check_monoidal_datum(d).overall


def test_monoidal_axioms_on_corpus(monoidal_datums):
    for name, d in monoidal_datums.items():
        assert check_entwining(d.base).overall, name
        assert check_monoidal_datum(d).overall, name


def test_zero_phi_fails_e3(h4):
    e = EntwiningMap(h4, h4, Matrix.zero(16, 16))
    rep = check_entwining(e)
    assert not rep.item("E03_unit").passed
    assert rep.item("E03_unit").witness is not None


# One-entry +1 perturbations of yd_kz2 (the flip on kz2, basis 1 = e0,
# g = e1, every basis element grouplike).  phi[row][col] has row
# a' * nc + c' and col c * na + a.  The failing axiom and its first failing
# tuple follow from the axioms alone; every earlier tuple reads only
# unperturbed columns, or the perturbed one through a unit on both sides.
#  - E01, phi(g (x) g) += 1 (x) 1: at (a, b, c) = (g, g, g) the left side
#    phi(g (x) g^2) = 1 (x) g reads column (g, 1), the right side reads
#    phi(g (x) g) twice and gains 2 g (x) 1.
#  - E04, phi(1 (x) g) += 1 (x) 1: (id (x) eps) phi(1 (x) g) gains
#    eps(1) 1 = 1 against eps(1) g.
#  - E05, phi(g (x) g) += 1 (x) 1: at (a, c, d) = (g, 1, g) the left side
#    gains Delta(1) (x) 1 = 1 (x) 1 (x) 1 and the right side
#    g (x) 1 (x) 1, from phi(1 (x) g) phi(g (x) g).
#  - E06, phi(1 (x) g) += 1 (x) g: (eps (x) id) phi(1_C (x) g) gains
#    eps(1) g = g against eps(g) 1_C = 1.
@pytest.mark.parametrize("check, axiom, row, col, basis, lhs, rhs", [
    (check_entwining, "E01_mult", 0, 3, (1, 1, 1), [0, 1, 0, 0], [0, 1, 2, 0]),
    (check_entwining, "E04_counit", 0, 1, (0, 1), [1, 1], [0, 1]),
    (check_monoidal_datum, "E05_mult_c", 0, 3, (1, 0, 1),
     [1, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0, 0, 1]),
    (check_monoidal_datum, "E06_unit_c", 1, 1, (1,), [1, 1], [1, 0]),
])
def test_one_entry_phi_perturbation_fails_axiom(monoidal_datums, check, axiom, row, col,
                                                basis, lhs, rhs):
    e = _mutate_phi(monoidal_datums["yd_kz2"].base, row, col)
    item = check(MonoidalEntwiningDatum(e)).item(axiom)
    assert not item.passed
    assert item.witness.basis == basis
    assert list(item.witness.lhs) == lhs
    assert list(item.witness.rhs) == rhs


def test_dqg_axioms_on_corpus(dqgs):
    for name, q in dqgs.items():
        assert check_double_quantum_group(q).overall, name


def test_yd_dqg_with_counit_only_rmap_fails_e7(h4, yd_h4):
    # R(a (x) b) = eps(a) eps(b) 1 (x) 1 does not intertwine the coactions
    rmap = matrix_from_columns_fn(
        (4, 4),
        (4, 4),
        lambda t: {
            (0, 0): Fraction(h4.counit.entry(0, t[0]) * h4.counit.entry(0, t[1]))
        }
        if h4.counit.entry(0, t[0]) * h4.counit.entry(0, t[1]) != 0
        else {},
    )
    q = DoubleQuantumGroup(yd_h4, rmap)
    rep = check_double_quantum_group(q)
    assert not rep.item("E07_coact").passed
    assert rep.item("E07_coact").witness is not None


def test_conv_unit_laws(monoidal_datums):
    import random

    rng = random.Random(11)
    for name, d in monoidal_datums.items():
        u = conv_unit(d)
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d.c_dim)]
            for _ in range(d.a_dim)
        ]
        f = HomCA(d, Matrix(rows))
        assert conv_product(u, f).map == f.map, name
        assert conv_product(f, u).map == f.map, name


def test_conv_product_flip_has_no_decorations(long_kz2, kz2):
    # with the flip entwining the product is plain f(c2) g(c1)
    g = HomCA(long_kz2, Matrix([[1, 2], [3, 4]]))
    f = HomCA(long_kz2, Matrix([[0, 1], [1, 1]]))
    got = conv_product(g, f)
    expect = Matrix.zero(2, 2)
    rows = [[Fraction(0)] * 2 for _ in range(2)]
    for c in range(2):
        for (c1, c2), w in kz2.comul_op.cols((c,)):
            for i in range(2):
                for j in range(2):
                    for (z,), m in kz2.mul_op.cols((i, j)):
                        rows[z][c] += w * f.map.entry(i, c2) * g.map.entry(j, c1)
    assert got.map == Matrix(rows)


def test_conv_inverse_of_identity_is_antipode(long_kz2, kz2):
    ident = HomCA(long_kz2, Matrix.identity(2))
    inv = conv_inverse(ident)
    assert inv is not None and inv.map == kz2.antipode


def test_conv_inverse_unit_and_zero(long_kz2):
    u = conv_unit(long_kz2)
    assert conv_inverse(u).map == u.map
    assert conv_inverse(HomCA(long_kz2, Matrix.zero(2, 2))) is None


def test_conv_associativity_random_triples(monoidal_datums):
    import random

    rng = random.Random(23)
    for name, d in monoidal_datums.items():
        def rand():
            rows = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d.c_dim)]
                for _ in range(d.a_dim)
            ]
            return HomCA(d, Matrix(rows))

        for _ in range(3):
            g, f, h = rand(), rand(), rand()
            assert conv_product(conv_product(g, f), h).map == conv_product(
                g, conv_product(f, h)
            ).map, name


def test_conv_inverse_unique_when_exists(yd_h4):
    g1, g2 = corpus.h4_yd_pivotal_pair(yd_h4)
    inv = conv_inverse(g1)
    assert inv is not None
    assert conv_product(g1, inv).map == conv_unit(yd_h4).map
    assert conv_product(inv, g1).map == conv_unit(yd_h4).map


def test_conv2_unit_laws(yd_h4):
    u2 = conv2_unit(yd_h4)
    f = Matrix.identity(16)
    assert conv2_product(yd_h4, u2, f) == f
    assert conv2_product(yd_h4, f, u2) == f


def test_conv2_inverse_of_yd_rmap(yd_dqg_h4):
    inv = yd_dqg_h4.rmap_conv_inverse
    assert inv is not None
    d = yd_dqg_h4.datum
    u2 = conv2_unit(d)
    assert conv2_product(d, yd_dqg_h4.rmap, inv) == u2
    assert conv2_product(d, inv, yd_dqg_h4.rmap) == u2


def test_conv2_associativity_random(monoidal_datums):
    import random

    rng = random.Random(31)
    d = monoidal_datums["yd_kz2"]
    nc, na = d.c_dim, d.a_dim

    def rand2():
        return Matrix(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc * nc)]
             for _ in range(na * na)]
        )

    for _ in range(3):
        a, b, c = rand2(), rand2(), rand2()
        left = conv2_product(d, conv2_product(d, a, b), c)
        right = conv2_product(d, a, conv2_product(d, b, c))
        assert left == right


def test_antipode_compat_on_corpus(monoidal_datums):
    for name, d in monoidal_datums.items():
        assert check_antipode_compat(d).overall, name


def test_antipode_compat_flip_closed_form(long_h4, h4):
    # with the flip both sides reduce to the plain antipode pair, so the
    # check passing pins the conventions; spot-check one contraction again
    rep = check_antipode_compat(long_h4)
    assert rep.overall


def test_corrupted_phi_breaks_axioms_and_compat(yd_h4):
    # mutation scan: find corruptions that break the comultiplication axiom
    # and confirm the antipode-compatibility check also reports a witness
    found_e2 = found_compat = False
    for i in range(16):
        for j in range(16):
            e = _mutate_phi(yd_h4.base, i, j)
            rep = check_entwining(e)
            if rep.item("E02_comult").passed:
                continue
            found_e2 = True
            compat = check_antipode_compat(MonoidalEntwiningDatum(e))
            if not compat.overall:
                found_compat = True
                for item in compat.items:
                    if not item.passed:
                        assert item.witness is not None
                break
        if found_compat:
            break
    assert found_e2 and found_compat


def test_e10b_reported_when_rmap_not_invertible(yd_h4, h4):
    rmap = Matrix.zero(16, 16)
    q = DoubleQuantumGroup(yd_h4, rmap)
    rep = check_double_quantum_group(q)
    assert not rep.item("E10b_conv_invertible").passed


def test_e3_restated_as_matrix_identity(monoidal_datums):
    # phi restricted to C (x) 1_A equals inserting the unit on the left
    from entwine.exactla import matrix_from_columns_fn
    from entwine.report import pipeline
    from entwine.exactla import sv_apply

    for name, d in monoidal_datums.items():
        left = matrix_from_columns_fn(
            (d.c_dim,),
            (d.a_dim, d.c_dim),
            lambda t: pipeline(
                t,
                lambda s: sv_apply(s, 1, d.a.unit_op),
                lambda s: sv_apply(s, 0, d.phi_op),
            ),
        )
        right = matrix_from_columns_fn(
            (d.c_dim,),
            (d.a_dim, d.c_dim),
            lambda t: pipeline(t, lambda s: sv_apply(s, 0, d.a.unit_op)),
        )
        assert left == right, name


def _random_matrix(rng, nrows, ncols):
    return Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ncols)]
                   for _ in range(nrows)])


def conv_operators(g: HomCA) -> tuple[Matrix, Matrix]:
    "x -> g*x and x -> x*g on hom(C, A), flattened by (a, c), from the production _operator."
    d = g.datum
    return tuple(_operator(d, (d.c_dim,), (d.a_dim,), _conv_side, g.op, first)
                 for first in (True, False))


def conv2_operators(d: MonoidalEntwiningDatum, g2: Matrix) -> tuple[Matrix, Matrix]:
    "x -> g2*x and x -> x*g2 on hom(C (x) C, A (x) A), from the production _operator."
    nc, na = d.c_dim, d.a_dim
    return tuple(_operator(d, (nc, nc), (na, na), _conv2_side, _conv2_op(d, g2), first)
                 for first in (True, False))


def _reference_operators(g, product, nrows, ncols):
    """x -> g*x and x -> x*g built one matrix unit at a time, the oracle for
    the one-pass build: column k is the row-major flattening of the product
    with the k-th matrix unit."""
    def flat(m):
        return [x for row in m.rows() for x in row]

    left, right = [], []
    for k in range(nrows * ncols):
        unit = [[0] * ncols for _ in range(nrows)]
        unit[k // ncols][k % ncols] = 1
        left.append(flat(product(g, Matrix(unit))))
        right.append(flat(product(Matrix(unit), g)))
    return Matrix.from_cols(left), Matrix.from_cols(right)


@pytest.mark.parametrize("name", ["yd_kz2", "yd_h4"])
def test_conv_operators_match_matrix_unit_reference(monoidal_datums, name):
    d = monoidal_datums[name]
    rng = random.Random(name)
    g = _random_matrix(rng, d.a_dim, d.c_dim)

    def product(x, y):
        return conv_product(HomCA(d, x), HomCA(d, y)).map

    left, right = conv_operators(HomCA(d, g))
    assert (left, right) == _reference_operators(g, product, d.a_dim, d.c_dim)


@pytest.mark.parametrize("name", ["yd_kz2", "yd_h4"])
def test_conv2_operators_match_matrix_unit_reference(monoidal_datums, name):
    d = monoidal_datums[name]
    rng = random.Random(name)
    g2 = _random_matrix(rng, d.a_dim ** 2, d.c_dim ** 2)

    def product(x, y):
        return conv2_product(d, x, y)

    left, right = conv2_operators(d, g2)
    assert (left, right) == _reference_operators(
        g2, product, d.a_dim ** 2, d.c_dim ** 2
    )


@pytest.mark.parametrize("name", ["yd_kz2", "yd_h4"])
def test_e10b_fails_for_a_singular_nonzero_rmap(monoidal_datums, name):
    # the convolution unit with its first column zeroed: nonzero, so E10b
    # fails through an inconsistent stacked system rather than R = 0
    d = monoidal_datums[name]
    rows = [list(r) for r in conv2_unit(d).rows()]
    for row in rows:
        row[0] = 0
    rmap = Matrix(rows)
    assert not rmap.is_zero()
    assert conv2_inverse(d, rmap) is None
    item = check_double_quantum_group(DoubleQuantumGroup(d, rmap)).item("E10b_conv_invertible")
    assert not item.passed
    assert list(item.witness.lhs) == [x for row in rows for x in row]
