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
    TensorOp,
    _ap,
    _pm,
    _rs,
    _transposed,
    basis_batches,
    rat_to_str,
    rows_cheaper,
    run_batch,
    state_to_vector,
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

    Once the first batch has passed, a scan with more tuples left runs the
    rest by rows where rows_cheaper says so: both sides backwards
    (_transposed) over the output basis vectors, BATCH_CAP at a time.  The
    two row states hold the same matrices' entries, so the least input
    tuple at which any row batch differs is the first failing tuple; that
    tuple alone is then run forwards for the Witness, which is so the one
    the scan by columns gives (the kernel comment, "Scans by rows").
    """
    in_dims, out_dims = tuple(in_dims), tuple(out_dims)
    n_in, n_out = prod(in_dims), prod(out_dims)
    for batch in basis_batches(in_dims, SCAN_FIRST_BATCH):
        left, right = run_batch(in_dims, batch, lhs), run_batch(in_dims, batch, rhs)
        if {left.dims[:-1], right.dims[:-1]} != {out_dims}:
            raise ValueError(f"{axiom_id}: a side ends on legs other than {out_dims}")
        if left != right:
            return _failed(axiom_id, in_dims, batch, left, right)
        if batch.start == 0 and batch.stop < n_in and rows_cheaper(n_in, n_out, (lhs, rhs)):
            t = _least_differing_column(out_dims, lhs, rhs)
            if t is None:
                break
            return _failed(axiom_id, in_dims, (t,), run_batch(in_dims, (t,), lhs),
                           run_batch(in_dims, (t,), rhs))
    return AxiomItem(axiom_id, True)


def _failed(axiom_id, in_dims, batch, left, right) -> AxiomItem:
    "The failed item of the least tuple of batch whose batch leg differs in the two states."
    b = len(batch)
    j = min(key % b for key, _ in left.items() ^ right.items())
    return AxiomItem(axiom_id, False, Witness(unflatten_index(in_dims, batch[j]),
                                              state_to_vector(left, j),
                                              state_to_vector(right, j)))


def _least_differing_column(out_dims, lhs, rhs) -> int | None:
    """The least flat input index at which the maps of the two sides differ,
    from their rows, every row batch run; None when they are equal."""
    back_l, back_r = _transposed(lhs), _transposed(rhs)
    least = None
    for batch in basis_batches(out_dims):
        left, right = run_batch(out_dims, batch, back_l), run_batch(out_dims, batch, back_r)
        if left != right:
            b = len(batch)
            t = min(key // b for key, _ in left.items() ^ right.items())
            least = t if least is None else min(least, t)
    return least


# the kernel op inserting one leg of dimension 1, always 0
_UNIT_LEG = TensorOp(Matrix([[1]]), (), (1,))


def _slot(pos):
    "Pipeline step: insert a slot leg 0 at leg position pos (see SlotLeg)."
    return _ap(pos, _UNIT_LEG)
