"""Seeded one-entry mutants whose FAIL verdict follows from the axioms alone.

Each mutant adds a nonzero rational to one entry that a unit or counit
axiom reads.  The seed picks the entry and the amount; the axiom that must
fail is known before the checker runs:

* Hopf unit entry ``u_k += delta``: H02 (left unit) must fail.  Its left
  side at ``b_j`` becomes ``b_j + delta * e_k b_j``, and ``e_k b_j`` is
  nonzero for some ``j`` because ``e_k * 1 = e_k`` and ``1`` is a
  combination of basis vectors.
* Hopf counit entry ``eps_k += delta``: H05 (left counit) must fail.  The
  added map ``x -> (e_k^* (x) id) Delta(x)`` is nonzero, since composing it
  with the counit gives ``e_k^*``.
* Entwining map, entry in a column ``(c, 1_A)`` (when the unit of A is a
  basis vector): E03 (unit) must fail at ``c``, because that column is
  exactly the left side ``phi(c (x) 1)``.
* Otherwise an entry in row ``(a', c')`` with ``eps_C(c') != 0``: E04
  (counit) must fail at the perturbed column, whose left side moves by
  ``delta * eps_C(c') * e_a'``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

DELTAS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-3, 2))


@dataclass(frozen=True)
class Mutation:
    "Where a mutant differs from its source, and the axiom that must fail."

    target: str              # "unit", "counit" or "phi"
    row: int
    col: int
    delta: Fraction
    expect_fail: str         # axiom id

    def describe(self) -> str:
        return f"{self.target}[{self.row}][{self.col}] += {self.delta} -> {self.expect_fail}"


def rng_for(seed: int, name: str) -> random.Random:
    "Independent stream per (seed, input name), so inputs do not shift each other."
    return random.Random(f"{seed}:{name}")


def _bump_rows(rows, i, j, delta):
    out = [list(r) for r in rows]
    out[i][j] += delta
    return out


def hopf_mutation(h, rng: random.Random) -> Mutation:
    target = rng.choice(("unit", "counit"))
    k = rng.randrange(h.dim)
    delta = rng.choice(DELTAS)
    if target == "unit":
        return Mutation("unit", k, 0, delta, "H02_left_unit")
    return Mutation("counit", 0, k, delta, "H05_left_counit")


def mutate_hopf(h, m: Mutation):
    "The Hopf data of ``h`` with one unit or counit entry changed."
    from entwine.exactla import Matrix, Vector
    from entwine.hopfcore import AlgebraData, CoalgebraData, HopfAlgebraData

    unit, counit = h.unit, h.counit
    if m.target == "unit":
        coords = list(unit)
        coords[m.row] += m.delta
        unit = Vector(coords)
    else:
        counit = Matrix(_bump_rows(counit.rows(), m.row, m.col, m.delta))
    alg = AlgebraData(h.dim, h.basis_names, h.mult, unit)
    coa = CoalgebraData(h.dim, h.basis_names, h.comult, counit)
    return HopfAlgebraData(alg, coa, h.antipode)


def entwining_mutation(e, rng: random.Random) -> Mutation:
    """Perturb the last column read by E03 when the unit of A is a basis
    vector, else the last column, in a row read by E04.

    The column is fixed so that the checkers stop their scans at the same
    tuples for every seed: the seed picks the row and the amount, and the
    cost of checking a mutant does not depend on it.
    """
    nc, na = e.c_dim, e.a_dim
    unit = list(e.a.unit)
    unit_idx = [i for i, x in enumerate(unit) if x != 0]
    delta = rng.choice(DELTAS)
    if len(unit_idx) == 1 and unit[unit_idx[0]] == 1:
        row = rng.randrange(na * nc)
        return Mutation("phi", row, (nc - 1) * na + unit_idx[0], delta, "E03_unit")
    counit = list(e.c.counit.row(0))
    c_out = rng.choice([i for i, x in enumerate(counit) if x != 0])
    a_out = rng.randrange(na)
    return Mutation("phi", a_out * nc + c_out, nc * na - 1, delta, "E04_counit")


def mutate_entwining(e, m: Mutation):
    "The entwining map ``e`` with one entry of phi changed."
    from entwine.entwining import EntwiningMap
    from entwine.exactla import Matrix

    return EntwiningMap(e.c, e.a, Matrix(_bump_rows(e.phi.rows(), m.row, m.col, m.delta)))
