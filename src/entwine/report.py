"""Structured pass/fail reports for axiom checks.

Every checker in this package returns an AxiomReport: one item per
axiom, each failed item carrying the first violating basis tuple
(lexicographic scan order) together with both evaluated sides.  Reports
are deterministic: items are sorted by axiom id and witnesses depend
only on the input data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .exactla import (
    State,
    Vector,
    basis_state,
    rat_to_str,
    state_to_vector,
    sv_apply,
    sv_permute,
)


@dataclass(frozen=True)
class Witness:
    basis: tuple[int, ...]
    lhs: Vector
    rhs: Vector

    def to_dict(self) -> dict:
        return {
            "basis": list(self.basis),
            "lhs": [rat_to_str(c) for c in self.lhs],
            "rhs": [rat_to_str(c) for c in self.rhs],
        }


@dataclass(frozen=True)
class AxiomItem:
    axiom_id: str
    passed: bool
    witness: Witness | None = None

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


def compare_item(axiom_id, in_dims, out_dims, lhs_fn, rhs_fn) -> AxiomItem:
    """Evaluate two sides on every basis tuple and report the first mismatch.

    ``lhs_fn``/``rhs_fn`` map a basis index tuple to a sparse State over
    ``out_dims``.  Scan order is lexicographic in the tuple.
    """
    in_dims = tuple(in_dims)
    out_dims = tuple(out_dims)
    for idx in itertools.product(*(range(d) for d in in_dims)):
        lhs = lhs_fn(idx)
        rhs = rhs_fn(idx)
        if lhs != rhs:
            return AxiomItem(
                axiom_id,
                False,
                Witness(idx, state_to_vector(lhs, out_dims), state_to_vector(rhs, out_dims)),
            )
    return AxiomItem(axiom_id, True)


def pipeline(idx, *steps) -> State:
    """Run a basis tuple through a sequence of kernel steps.

    Each step is a callable State -> State; this is just foldl with a
    basis seed, kept tiny so axiom transcriptions stay readable.
    """
    state = basis_state(idx)
    for step in steps:
        state = step(state)
    return state


def _ap(pos, op):
    "Pipeline step: apply op at leg position pos."
    return lambda state: sv_apply(state, pos, op)


def _pm(perm):
    "Pipeline step: permute legs."
    return lambda state: sv_permute(state, perm)
