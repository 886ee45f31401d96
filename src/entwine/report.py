"""Structured pass/fail reports for axiom checks.

Every checker in this package returns an AxiomReport: one item per
axiom, each failed item carrying the first violating basis tuple
(lexicographic scan order) together with both evaluated sides.  Reports
are deterministic: items are sorted by axiom id and witnesses depend
only on the input data.
"""

from __future__ import annotations

from collections import namedtuple
from math import prod

from .exactla import (
    SCAN_FIRST_BATCH,
    Matrix,
    State,
    TensorOp,
    basis_batches,
    run_batch,
    rat_to_str,
    state_to_vector,
    sv_apply,
    sv_permute,
    unflatten_index,
)


class Witness(namedtuple("Witness", "basis lhs rhs")):
    "The first failing basis tuple of an axiom, with both sides as Vectors."

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "basis": list(self.basis),
            "lhs": [rat_to_str(c) for c in self.lhs],
            "rhs": [rat_to_str(c) for c in self.rhs],
        }


class AxiomItem(namedtuple("AxiomItem", "axiom_id passed witness", defaults=(None,))):
    "One axiom's verdict, with a Witness when it failed."

    __slots__ = ()

    def to_dict(self) -> dict:
        d: dict = {"axiom": self.axiom_id, "passed": self.passed}
        if self.witness is not None:
            d["witness"] = self.witness.to_dict()
        return d


class AxiomReport:
    """Conjunction of per-axiom verdicts, ordered by axiom id."""

    def __init__(self, items):
        self.items = tuple(sorted(items, key=lambda it: it.axiom_id))

    @property
    def overall(self) -> bool:
        return all(it.passed for it in self.items)

    def item(self, axiom_id: str) -> AxiomItem:
        for it in self.items:
            if it.axiom_id == axiom_id:
                return it
        raise KeyError(axiom_id)

    def failed_ids(self) -> list[str]:
        return [it.axiom_id for it in self.items if not it.passed]

    def merged_with(self, other: "AxiomReport") -> "AxiomReport":
        return AxiomReport(self.items + other.items)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "items": [it.to_dict() for it in self.items],
        }

    def render_text(self) -> str:
        return render_text(self.to_dict())

    def __repr__(self):
        verdict = "pass" if self.overall else "FAIL:" + ",".join(self.failed_ids())
        return f"AxiomReport({verdict})"


def render_text(doc: dict) -> str:
    """Text rendering of a report dict in the form AxiomReport.to_dict makes,
    so a saved JSON report renders exactly as the live one did."""
    lines = []
    for it in doc.get("items", []):
        mark = "pass" if it.get("passed") else "FAIL"
        line = f"{mark}  {it.get('axiom')}"
        w = it.get("witness")
        if w is not None:
            line += (
                f"  at basis {tuple(w.get('basis', ()))}"
                f" lhs=({', '.join(map(str, w.get('lhs', ())))})"
                f" rhs=({', '.join(map(str, w.get('rhs', ())))})"
            )
        lines.append(line)
    lines.append("overall: " + ("pass" if doc.get("overall") else "FAIL"))
    return "\n".join(lines)


def compare_item(axiom_id, in_dims, out_dims, lhs, rhs) -> AxiomItem:
    """Evaluate two sides on every basis tuple and report the first mismatch.

    ``lhs``/``rhs`` are step sequences taking a basis tuple over
    ``in_dims`` to a State over ``out_dims``.  The tuples run in
    lexicographic order, in batches of 16, 32, then 64 = BATCH_CAP (see
    run_batch), and each batch is decided by one comparison of the two
    batched states.  A first batch of 16 pays each step's per-call cost
    once for many tuples, while a scan failing early evaluates few tuples
    past its witness; the batches stop at 64 because a larger batch holds
    larger states for little gain in speed (exactla's kernel comment has
    the figures for both).  On a mismatch the smallest batch leg j whose
    terms differ names the witness tuple, and its sides are the two states
    on batch leg j.  Every earlier batch compared equal, so that is the
    first failing tuple in lexicographic order whatever the batch sizes,
    with the sides it alone gives.
    """
    in_dims, out_dims = tuple(in_dims), tuple(out_dims)
    for batch in basis_batches(in_dims, SCAN_FIRST_BATCH):
        left, right = run_batch(in_dims, batch, lhs), run_batch(in_dims, batch, rhs)
        if {left.dims[:-1], right.dims[:-1]} != {out_dims}:
            raise ValueError(f"{axiom_id}: a side ends on legs other than {out_dims}")
        if left != right:
            b = len(batch)
            j = min(key % b for key, _ in left.items() ^ right.items())
            return AxiomItem(axiom_id, False, Witness(unflatten_index(in_dims, batch[j]),
                                                      state_to_vector(left, j),
                                                      state_to_vector(right, j)))
    return AxiomItem(axiom_id, True)


# _ap and _pm keep what they apply as their defaults, (pos, op) and (perm,),
# so hom_operator can find f's step and run the steps after it transposed.  A
# lambda with defaults is made faster than a closure (about 150 against 190
# ns, CPython 3.11) and called as fast (about 90 ns); a scan makes thousands.
def _ap(pos, op):
    "Pipeline step: apply op at leg position pos."
    return lambda state, pos=pos, op=op: sv_apply(state, pos, op)


def _pm(perm):
    "Pipeline step: permute legs."
    return lambda state, perm=perm: sv_permute(state, perm)


def _rs(pos, in_dims, out_dims):
    """Pipeline step: read the legs over in_dims at leg position pos as legs
    over out_dims, of the same size.  A flat key is the same under both (see
    exactla's kernel comment), so only ``dims`` changes."""
    if prod(in_dims) != prod(out_dims):
        raise ValueError(f"legs {in_dims} cannot be read as {out_dims}")
    end = pos + len(in_dims)

    def step(state):
        dims = state.dims
        if dims[pos:end] != in_dims or end >= len(dims):
            raise ValueError(f"legs {in_dims} reshaped at leg {pos} of {dims}")
        out = State(state)
        out.dims = dims[:pos] + out_dims + dims[end:]
        return out

    return step


# the kernel op inserting one leg of dimension 1, always 0
_UNIT_LEG = TensorOp(Matrix([[1]]), (), (1,))


def _slot(pos):
    "Pipeline step: insert a slot leg 0 at leg position pos (see SlotLeg)."
    return _ap(pos, _UNIT_LEG)
