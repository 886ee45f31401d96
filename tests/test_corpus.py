"""The corpus is the regression surface: every constructor passes its suite."""

from fractions import Fraction

import pytest

from entwine import corpus
from entwine.emodcat import check_entwined_module, std_module_AC, std_module_CA
from entwine.entwining import (
    check_antipode_compat,
    check_double_quantum_group,
    check_entwining,
    check_monoidal_datum,
)
from entwine.exactla import Matrix, Vector, sv_apply, sv_permute
from entwine.hopfcore import BilinearForm, check_hopf, coquasitri_check, quasitri_check

from oracles import h4_form, h4_rmatrix, pipeline


def test_every_hopf_constructor_passes():
    for name in corpus.corpus_names():
        kind, obj = corpus.corpus_build(name)
        if kind == "hopf":
            assert check_hopf(obj).overall, name


def test_every_datum_constructor_passes(monoidal_datums):
    for name, d in monoidal_datums.items():
        assert check_entwining(d.base).overall, name
        assert check_monoidal_datum(d).overall, name
        assert check_antipode_compat(d).overall, name
        assert check_entwined_module(std_module_CA(d)).overall, name
        assert check_entwined_module(std_module_AC(d)).overall, name


def test_every_dqg_constructor_passes(dqgs):
    for name, q in dqgs.items():
        assert check_entwining(q.datum.base).overall, name
        assert check_monoidal_datum(q.datum).overall, name
        assert check_double_quantum_group(q).overall, name


def test_long_condition_on_std_modules(long_h4):
    # coaction of the action is the action of the coaction, with no twist
    for m in (std_module_CA(long_h4), std_module_AC(long_h4)):
        for x in range(m.dim):
            for a in range(long_h4.a_dim):
                lhs = pipeline(
                    (m.dim, long_h4.a_dim), (x, a),
                    lambda s: sv_apply(s, 0, m.action_op),
                    lambda s: sv_apply(s, 0, m.coaction_op),
                )
                rhs = pipeline(
                    (m.dim, long_h4.a_dim), (x, a),
                    lambda s: sv_apply(s, 0, m.coaction_op),
                    lambda s: sv_permute(s, (0, 2, 1)),
                    lambda s: sv_apply(s, 0, m.action_op),
                )
                assert lhs == rhs


def test_yd_condition_on_std_modules(yd_h4, h4):
    # coaction of the action conjugates the coaction leg
    for m in (std_module_CA(yd_h4), std_module_AC(yd_h4)):
        for x in range(m.dim):
            for a in range(4):
                lhs = pipeline(
                    (m.dim, 4), (x, a),
                    lambda s: sv_apply(s, 0, m.action_op),
                    lambda s: sv_apply(s, 0, m.coaction_op),
                )
                rhs = pipeline(
                    (m.dim, 4), (x, a),
                    lambda s: sv_apply(s, 1, h4.comul_op),      # x a1 a2
                    lambda s: sv_apply(s, 2, h4.comul_op),      # x a1 a2 a3
                    lambda s: sv_apply(s, 0, m.coaction_op),    # x0 x1 a1 a2 a3
                    lambda s: sv_apply(s, 2, h4.antipode_op),   # x0 x1 S(a1) a2 a3
                    lambda s: sv_permute(s, (0, 3, 2, 1, 4)),   # x0 a2 S(a1) x1 a3
                    lambda s: sv_apply(s, 0, m.action_op),      # x0.a2 S(a1) x1 a3
                    lambda s: sv_apply(s, 1, h4.mul_op),
                    lambda s: sv_apply(s, 1, h4.mul_op),
                )
                assert lhs == rhs


def test_yd_on_cocommutative_collapses_to_flip(kz2):
    assert corpus.yd_datum(kz2).phi == corpus.flip_entwining(kz2, kz2).phi


def test_triangular_rmatrix_square_is_unit(kz2):
    # R21 * R = 1 (x) 1, the triangularity behind the twist-law example
    r = corpus.z2_triangular_rmatrix(kz2)
    acc = {}
    for u in range(2):
        for v in range(2):
            x = r[u * 2 + v]
            if x == 0:
                continue
            for p in range(2):
                for q in range(2):
                    y = r[p * 2 + q]
                    if y == 0:
                        continue
                    # (v (x) u) * (p (x) q) componentwise
                    first = kz2.mult.col(v * 2 + p)
                    second = kz2.mult.col(u * 2 + q)
                    for i, ci in enumerate(first):
                        for j, cj in enumerate(second):
                            if ci * cj != 0:
                                key = (i, j)
                                acc[key] = acc.get(key, Fraction(0)) + x * y * ci * cj
    acc = {k: v for k, v in acc.items() if v != 0}
    assert acc == {(0, 0): Fraction(1)}


def test_corpus_names_cover_cli_registry():
    names = corpus.corpus_names()
    for required in ("h4", "kz2", "dual_kz2", "yd_h4", "yd_dqg_h4", "long_h4",
                     "long_dqg_kz2", "double_h4", "g1_yd_h4", "g2_yd_h4",
                     "g_long_h4", "hopfmod_h4"):
        assert required in names
    for name in names:
        kind, obj = corpus.corpus_build(name)
        assert kind in ("hopf", "entwining", "dqg", "morphism", "element", "functional", "form")


def test_unknown_corpus_name():
    with pytest.raises(KeyError):
        corpus.corpus_build("nope")


def oracle_long_dqg_rmap(h, rmatrix, b, form):
    """The column loop long_dqg used before it became a pipeline, with its
    layout changed from R2 (x) R1 to R1 (x) R2 (see
    test_long_dqg_of_premises_that_hold_passes_the_chain)."""
    from entwine.exactla import matrix_from_columns_fn

    nb, nh = b.dim, h.dim

    def col(t):
        beta = form.value(t[0], t[1])
        out = {}
        if beta == 0:
            return out
        for u in range(nh):
            for v in range(nh):
                x = rmatrix[u * nh + v]
                if x != 0:
                    out[(u, v)] = beta * x
        return out

    return matrix_from_columns_fn((nb, nb), (nh, nh), col)


@pytest.mark.parametrize("seed", range(4))
def test_long_dqg_braiding_map_matches_oracle(h4, seed):
    # R and beta are arbitrary here, neither symmetric nor (co)quasitriangular:
    # long_dqg only assembles the map
    import random

    rng = random.Random(seed)
    b = corpus.cyclic_group_algebra(3)
    r = Vector([rng.choice([0, 1, -2, Fraction(1, 3)]) for _ in range(16)])
    form = BilinearForm(b, b, Matrix([[rng.choice([0, 1, -1, 2]) for _ in range(9)]]))
    q = corpus.long_dqg(h4, r, b, form)
    assert q.rmap == oracle_long_dqg_rmap(h4, r, b, form)
    assert not q.rmap.is_zero()


@pytest.mark.parametrize("alpha", [0, 1, Fraction(2, 3)])
@pytest.mark.parametrize("gamma", [0, 1])
def test_long_dqg_of_premises_that_hold_passes_the_chain(h4, alpha, gamma):
    """long_dqg's claim: a quasitriangular (H, R) and a coquasitriangular
    (B, beta) give a double structure, E01-E10b.  R_alpha with alpha != 0 is
    not symmetric, so the layout R2 (x) R1 fails E09 and E10a here."""
    r, form = h4_rmatrix(alpha), h4_form(h4, gamma)
    # the premises hold on the whole grid, so the implication is never vacuous
    assert quasitri_check(h4, r).overall
    assert coquasitri_check(h4, form).overall
    q = corpus.long_dqg(h4, r, h4, form)
    rep = (check_entwining(q.datum).merged_with(check_monoidal_datum(q.datum))
           .merged_with(check_double_quantum_group(q)))
    ids = [item.axiom_id for item in rep.items]
    assert ids[0].startswith("E01") and ids[-1].startswith("E10b")
    assert [i for item, i in zip(rep.items, ids) if not item.passed] == []


@pytest.mark.parametrize("alpha", [0, 1, Fraction(2, 3), -3])
@pytest.mark.parametrize("gamma", [0, 1])
def test_long_dqg_of_the_flipped_r_fails_exactly_e09_and_e10a(h4, alpha, gamma):
    """The layout R2 (x) R1 that long_dqg once stored, as its input: long_dqg
    of tau R_alpha, legs swapped.  For alpha != 0 R_alpha is not symmetric,
    and exactly E09 and E10a fail, each with sides that differ; R_0 is
    symmetric, and then every axiom holds."""
    r = h4_rmatrix(alpha)
    flipped = Vector([r[v * 4 + u] for u in range(4) for v in range(4)])
    q = corpus.long_dqg(h4, flipped, h4, h4_form(h4, gamma))
    rep = (check_entwining(q.datum).merged_with(check_monoidal_datum(q.datum))
           .merged_with(check_double_quantum_group(q)))
    failed = [item for item in rep.items if not item.passed]
    if alpha == 0:
        assert flipped == r and failed == []
        return
    assert [item.axiom_id for item in failed] == ["E09_split_right", "E10a_split_left"]
    assert all(item.witness.lhs != item.witness.rhs for item in failed)
