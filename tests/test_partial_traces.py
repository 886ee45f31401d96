"""Partial traces of the entwining map in the kernel, against dense oracles.

AC1/AC2, R4 and the finder's linear stage are kernel pipelines closed by
Cup and Cap legs.  The oracles below are the dense index loops and the
per-matrix-unit linearisation they replaced, kept verbatim; the reports,
witnesses, constraint rows and affine families must be equal, on the
corpus and on seeded one-entry mutants of the entwining map.
"""

import random
from fractions import Fraction

import pytest

from entwine import corpus
from entwine.entwining import (
    DoubleQuantumGroup,
    EntwiningMap,
    HomCA,
    MonoidalEntwiningDatum,
    check_antipode_compat,
    conv_unit,
)
from entwine.exactla import ONE, ZERO, Cap, Cup, Matrix, TensorOp, Vector, solve_affine
from entwine.pivribbon import _laws, _linear_system, verify_ribbon
from entwine.report import AxiomItem, AxiomReport, Witness, compare_item, _ap

from oracles import corpus_dqgs, corpus_monoidal_datums, pipeline, zero_r


# -- oracles (the dense loops the kernel pipelines replaced) --------------------


def oracle_antipode_compat(d: MonoidalEntwiningDatum) -> AxiomReport:
    c, a = d.c, d.a
    nc, na = d.c_dim, d.a_dim
    phi = d.phi

    # dense 4-tensor view Phi[c_in][a_in][a_out][c_out]
    Phi = [
        [
            [[phi.entry(l * nc + j, i * na + k) for j in range(nc)] for l in range(na)]
            for k in range(na)
        ]
        for i in range(nc)
    ]

    def closed_loop_rhs(sa: Matrix, sc: Matrix, i: int, k: int):
        # sum over l (internal A leg) and w (internal C leg):
        #   Phi[i][t][u][w] sa[t][l] * Phi[s][k][l][j] sc[s][w]  -> out[(u, j)]
        out: dict = {}
        for l in range(na):
            for u in range(na):
                for w in range(nc):
                    x = ZERO
                    for t in range(na):
                        if sa.entry(t, l) != 0:
                            x += Phi[i][t][u][w] * sa.entry(t, l)
                    if x == 0:
                        continue
                    for j in range(nc):
                        q = ZERO
                        for s in range(nc):
                            if sc.entry(s, w) != 0:
                                q += sc.entry(s, w) * Phi[s][k][l][j]
                        if q == 0:
                            continue
                        key = (u, j)
                        nv = out.get(key, ZERO) + x * q
                        if nv == 0:
                            out.pop(key, None)
                        else:
                            out[key] = nv
        return out

    def item(axiom_id, sa, sc):
        for i in range(nc):
            for k in range(na):
                lhs = {
                    (u, j): sa.entry(u, k) * sc.entry(j, i)
                    for u in range(na)
                    for j in range(nc)
                    if sa.entry(u, k) * sc.entry(j, i) != 0
                }
                got = closed_loop_rhs(sa, sc, i, k)
                if lhs != got:
                    return AxiomItem(
                        axiom_id,
                        False,
                        Witness(
                            (i, k),
                            Vector([lhs.get((u, j), ZERO) for u in range(na) for j in range(nc)]),
                            Vector([got.get((u, j), ZERO) for u in range(na) for j in range(nc)]),
                        ),
                    )
        return AxiomItem(axiom_id, True)

    items = [
        item("AC1_inv_antipode", a.antipode_inv, c.antipode),
        item("AC2_antipode", a.antipode, c.antipode_inv),
    ]
    return AxiomReport(items)


def _closed_loop_twist(d: MonoidalEntwiningDatum, inner: Matrix) -> Matrix:
    """The partial-trace map c -> (inner(c^phi))_phi, where inner: C -> A is
    fed phi's own coalgebra output and returned through its algebra input."""
    nc, na = d.c_dim, d.a_dim
    phi = d.phi
    out = [[ZERO] * nc for _ in range(na)]
    for i in range(nc):
        for k in range(na):
            for l in range(na):
                for j in range(nc):
                    w = phi.entry(l * nc + j, i * na + k)
                    if w != 0:
                        m = inner.entry(k, j)
                        if m != 0:
                            out[l][i] += w * m
    return Matrix(out)


def oracle_r4_item(d: MonoidalEntwiningDatum, g: HomCA) -> AxiomItem:
    nc, na = d.c_dim, d.a_dim
    return compare_item(
        "R4_self_dual",
        (nc,),
        (na,),
        (_ap(0, g.op),),
        (_ap(0, TensorOp(_closed_loop_twist(d, d.a.antipode_inv * g.map * d.c.antipode),
                         (nc,), (na,))),),
    )


def oracle_linear_constraint_rows(d: MonoidalEntwiningDatum, kind: str):
    """Rows (coeffs, rhs) of the linear laws over the unknown entries of g,
    flattened as (a_out, c_in) pairs."""
    nc, na = d.c_dim, d.a_dim
    nunk = na * nc
    rows: list[tuple[list[Fraction], Fraction]] = []

    def g_entry_coeffs(fn):
        """Linearize g -> fn(g) at matrix units.  fn maps a HomCA to a dict
        (out_tuple -> value); returns {out_tuple -> coefficient row}."""
        table: dict[tuple, list[Fraction]] = {}
        for u in range(na):
            for p in range(nc):
                basis = HomCA(d, _unit_matrix(na, nc, u, p))
                for key, val in fn(basis).items():
                    row = table.setdefault(key, [ZERO] * nunk)
                    row[u * nc + p] += val
        return table

    phi, mul_a, comul_c, mul_c, comul_a = (
        d.phi_op,
        d.a.mul_op,
        d.c.comul_op,
        d.c.mul_op,
        d.a.comul_op,
    )

    def add_equation(lhs_table, rhs_table, out_keys):
        for key in sorted(out_keys):
            lrow = lhs_table.get(key, [ZERO] * nunk)
            rrow = rhs_table.get(key, [ZERO] * nunk)
            coeffs = [a - b for a, b in zip(lrow, rrow)]
            if any(c != 0 for c in coeffs):
                rows.append((coeffs, ZERO))

    if kind == "pivotal":
        # counit normalization: eps(g(1_C)) = 1
        row = [ZERO] * nunk
        unit_c = d.c.unit
        eps_a = d.a.counit
        for u in range(na):
            for p in range(nc):
                row[u * nc + p] = eps_a.entry(0, u) * unit_c[p]
        rows.append((row, ONE))

    # action law: pivotal twists by S^2, ribbon does not
    tw = d.a.antipode_sq_op if kind == "pivotal" else None
    for a_idx in range(na):
        for c_idx in range(nc):
            def lhs(g, t=(c_idx, a_idx)):
                steps = [_ap(0, g.op)]
                if tw is not None:
                    steps.insert(0, _ap(1, tw))
                return pipeline((nc, na), t, *steps, _ap(0, mul_a))

            def rhs(g, t=(c_idx, a_idx)):
                return pipeline((nc, na), t, _ap(0, phi), _ap(1, g.op), _ap(0, mul_a))

            lt = g_entry_coeffs(lambda g: lhs(g))
            rt = g_entry_coeffs(lambda g: rhs(g))
            add_equation(lt, rt, {(i,) for i in range(na)})

    # coaction law: pivotal twists by S_C^{-2}, ribbon does not
    ctw = d.c.antipode_inv_sq_op if kind == "pivotal" else None
    for c_idx in range(nc):
        def lhs(g, t=(c_idx,)):
            return pipeline((nc,), t, _ap(0, comul_c), _ap(0, g.op))

        def rhs(g, t=(c_idx,)):
            steps = [_ap(0, comul_c), _ap(1, g.op), _ap(0, phi)]
            if ctw is not None:
                steps.append(_ap(1, ctw))
            return pipeline((nc,), t, *steps)

        lt = g_entry_coeffs(lambda g: lhs(g))
        rt = g_entry_coeffs(lambda g: rhs(g))
        add_equation(lt, rt, {(i, j) for i in range(na) for j in range(nc)})

    if kind == "ribbon":
        # self-duality law R4 is linear in g
        for c_idx in range(nc):
            def lhs(g, t=(c_idx,)):
                return pipeline((nc,), t, _ap(0, g.op))

            def rhs(g, t=(c_idx,)):
                m = _closed_loop_twist(d, d.a.antipode_inv * g.map * d.c.antipode)
                return {
                    (i,): m.entry(i, t[0])
                    for i in range(na)
                    if m.entry(i, t[0]) != 0
                }

            lt = g_entry_coeffs(lambda g: lhs(g))
            rt = g_entry_coeffs(lambda g: rhs(g))
            add_equation(lt, rt, {(i,) for i in range(na)})
    return rows


def _unit_matrix(nrows, ncols, i, j) -> Matrix:
    rows = [[ZERO] * ncols for _ in range(nrows)]
    rows[i][j] = ONE
    return Matrix(rows)


def oracle_affine_family(d: MonoidalEntwiningDatum, kind: str):
    rows = oracle_linear_constraint_rows(d, kind)
    if not rows:
        nunk = d.a_dim * d.c_dim
        ident = Matrix.zero(1, nunk)
        return solve_affine(ident, Vector.zero(1))
    mat = Matrix([r for r, _ in rows])
    rhs = Vector([b for _, b in rows])
    return solve_affine(mat, rhs)


# -- inputs ---------------------------------------------------------------------


def _datums():
    out = dict(corpus_monoidal_datums())
    for name, q in corpus_dqgs().items():
        out[name] = q.datum
    return out


DATUMS = _datums()


def phi_mutants(d: MonoidalEntwiningDatum, count: int, seed: int):
    "Datums whose phi differs from d's in one seeded entry."
    rng = random.Random(seed)
    rows = [list(r) for r in d.phi.rows()]
    out = []
    for _ in range(count):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        new = [list(r) for r in rows]
        new[i][j] += rng.choice([Fraction(-1), ONE, Fraction(1, 2), Fraction(-3, 2)])
        out.append(MonoidalEntwiningDatum(EntwiningMap(d.c, d.a, Matrix(new))))
    return out


def _random_hom(d, rng):
    rows = [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d.c_dim)]
        for _ in range(d.a_dim)
    ]
    return HomCA(d, Matrix(rows))


def _same_report(got: AxiomReport, want: AxiomReport):
    assert got.to_dict() == want.to_dict()
    assert got.render_text() == want.render_text()


# -- tests ----------------------------------------------------------------------


def test_cup_and_cap_contract_a_pair_of_legs():
    cup, cap = Cup(3), Cap(3)
    assert (cup.in_dims, cup.out_dims, cap.in_dims, cap.out_dims) == ((), (3, 3), (3, 3), ())
    opened = pipeline((3,), (1,), _ap(1, cup))
    assert opened == {(1, 0, 0): ONE, (1, 1, 1): ONE, (1, 2, 2): ONE}
    # the trace of the identity is the dimension: cup then cap on the same legs
    assert pipeline((), (), _ap(0, cup), _ap(0, cap)) == {(): Fraction(3)}
    assert pipeline((3, 3), (2, 1), _ap(0, cap)) == {}


@pytest.mark.parametrize("name", sorted(DATUMS))
def test_antipode_compat_matches_dense_oracle(name):
    d = DATUMS[name]
    mutants = phi_mutants(d, 8, seed=sorted(DATUMS).index(name))
    failing = 0
    for dd in [d, *mutants]:
        want = oracle_antipode_compat(dd)
        _same_report(check_antipode_compat(dd), want)
        failing += not want.overall
    assert check_antipode_compat(d).overall
    assert failing >= 4  # the witnesses are compared, not only verdicts


@pytest.mark.parametrize("name", sorted(corpus_dqgs()))
def test_r4_matches_closed_loop_oracle(name):
    q = corpus_dqgs()[name]
    rng = random.Random(7)
    cases = []
    for dd in [q.datum, *phi_mutants(q.datum, 4, seed=11)]:
        qq = DoubleQuantumGroup(dd, q.rmap)
        for g in (conv_unit(dd), _random_hom(dd, rng), _random_hom(dd, rng)):
            cases.append((qq, g))
    if name == "long_dqg_kz2":
        ribbon = corpus.long_kz2_ribbon()
        cases.append((q, HomCA(q.datum, ribbon.map)))
    failing = 0
    for qq, g in cases:
        want = oracle_r4_item(qq.datum, g)
        got = verify_ribbon(qq, g).item("R4_self_dual")
        _same_report(AxiomReport([got]), AxiomReport([want]))
        failing += not want.passed
    assert failing >= 2


def _family(sol):
    return None if sol is None else (sol.particular, sol.nullspace_basis)


@pytest.mark.parametrize("kind", ["pivotal", "ribbon"])
@pytest.mark.parametrize("name", sorted(DATUMS))
def test_linear_stage_matches_matrix_unit_oracle(name, kind):
    d = DATUMS[name]
    for dd in [d, *phi_mutants(d, 2, seed=3)]:
        want = oracle_linear_constraint_rows(dd, kind)
        a, b = system = _linear_system(_laws(zero_r(dd), kind))
        # the stacked system keeps the rows that vanish; the oracle drops them
        got = [([row.get(c, 0) for c in range(a.ncols)], x) for row, x in zip(a, b) if row or x]

        def canon(rows):
            return sorted((tuple(r), b) for r, b in rows)

        assert canon(got) == canon(want)
        assert _family(solve_affine(*system)) == _family(oracle_affine_family(dd, kind))
