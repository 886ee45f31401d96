"""JSON structure files: loading, saving, content hashes.

One file holds one object.  All scalars are canonical rational strings
("p/q", or "p" when the denominator is 1); matrices are row-major lists
of rows; keys are sorted and output ends with a single newline, so
save/load round trips are bit-exact.  Non-canonical rationals ("2/4",
"3/1") are rejected on load.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .exactla import Matrix, NotInvertibleError, Vector, rat_from_str, rat_to_str
from .emodcat import EntwinedModule
from .entwining import DoubleQuantumGroup, EntwiningMap, HomCA, MonoidalEntwiningDatum
from .hopfcore import (
    AlgebraData,
    BilinearForm,
    CoalgebraData,
    Element,
    Functional,
    HopfAlgebraData,
)

FORMAT_VERSION = "1"

KINDS = ("hopf", "entwining", "dqg", "module", "morphism", "element", "functional", "form")


class FileFormatError(ValueError):
    "Raised on malformed structure files, with a field-path diagnostic."


@dataclass
class LoadedMorphism:
    "A morphism file: the map C -> A, to be attached to a datum by the caller."
    map: Matrix
    metadata: dict = field(default_factory=dict)


@dataclass
class LoadedElement:
    coords: Vector
    metadata: dict = field(default_factory=dict)


@dataclass
class LoadedFunctional:
    coords: Matrix
    metadata: dict = field(default_factory=dict)


@dataclass
class LoadedForm:
    coords: Matrix
    dim_left: int
    dim_right: int
    metadata: dict = field(default_factory=dict)


def _matrix_to_rows(m: Matrix) -> list[list[str]]:
    return [[rat_to_str(x) for x in row] for row in m.rows()]


def _vector_to_list(v: Vector) -> list[str]:
    return [rat_to_str(x) for x in v]


def _parse_matrix(obj, nrows: int, ncols: int, where: str) -> Matrix:
    if not isinstance(obj, list) or len(obj) != nrows:
        raise FileFormatError(f"{where}: expected {nrows} rows")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != ncols:
            raise FileFormatError(f"{where}[{i}]: expected {ncols} entries")
        try:
            rows.append([rat_from_str(x) for x in row])
        except (ValueError, TypeError) as exc:
            raise FileFormatError(f"{where}[{i}]: {exc}") from exc
    return Matrix(rows)


def _parse_dim(obj: dict, key: str, where: str) -> int:
    "A dimension field: a JSON integer >= 1 (not a boolean, string or float)."
    dim = obj.get(key)
    if type(dim) is not int or dim < 1:
        raise FileFormatError(f"{where}.{key}: expected a positive integer, got {dim!r}")
    return dim


def _parse_vector(obj, dim: int, where: str) -> Vector:
    if not isinstance(obj, list) or len(obj) != dim:
        raise FileFormatError(f"{where}: expected {dim} entries")
    try:
        return Vector([rat_from_str(x) for x in obj])
    except (ValueError, TypeError) as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def _hopf_payload(h: HopfAlgebraData) -> dict:
    return {
        "dim": h.dim,
        "basis": list(h.basis_names),
        "mult": _matrix_to_rows(h.mult),
        "unit": _vector_to_list(h.unit),
        "comult": _matrix_to_rows(h.comult),
        "counit": _matrix_to_rows(h.counit),
        "antipode": _matrix_to_rows(h.antipode),
    }


def _parse_hopf_payload(obj: dict, where: str) -> HopfAlgebraData:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: expected an object")
    dim = _parse_dim(obj, "dim", where)
    basis = obj.get("basis")
    if basis is None:
        basis = [f"b{i}" for i in range(dim)]
    elif not (isinstance(basis, list) and len(basis) == dim
              and all(isinstance(name, str) for name in basis)):
        raise FileFormatError(f"{where}.basis: expected a list of {dim} names")
    try:
        mult = _parse_matrix(obj["mult"], dim, dim * dim, f"{where}.mult")
        unit = _parse_vector(obj["unit"], dim, f"{where}.unit")
        comult = _parse_matrix(obj["comult"], dim * dim, dim, f"{where}.comult")
        counit = _parse_matrix(obj["counit"], 1, dim, f"{where}.counit")
        antipode = _parse_matrix(obj["antipode"], dim, dim, f"{where}.antipode")
    except KeyError as exc:
        raise FileFormatError(f"{where}: missing field {exc}") from exc
    alg = AlgebraData(dim, basis, mult, unit)
    coa = CoalgebraData(dim, basis, comult, counit)
    try:
        return HopfAlgebraData(alg, coa, antipode)
    except NotInvertibleError as exc:
        raise FileFormatError(f"{where}.antipode: not invertible") from exc


PHI_SIGNATURE = "C(x)A -> A(x)C"
RMAP_SIGNATURE = "C(x)C -> A(x)A"


def _entwining_payload(e) -> dict:
    return {
        "coalgebra_side": _hopf_payload(e.c),
        "algebra_side": _hopf_payload(e.a),
        "phi": _matrix_to_rows(e.phi),
        "phi_signature": PHI_SIGNATURE,
    }


def _parse_entwining_payload(obj: dict, where: str) -> EntwiningMap:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: expected an object")
    sig = obj.get("phi_signature", PHI_SIGNATURE)
    if sig != PHI_SIGNATURE:
        raise FileFormatError(
            f"{where}.phi_signature: expected {PHI_SIGNATURE!r}, got {sig!r}"
        )
    c = _parse_hopf_payload(obj.get("coalgebra_side"), f"{where}.coalgebra_side")
    a = _parse_hopf_payload(obj.get("algebra_side"), f"{where}.algebra_side")
    phi = _parse_matrix(obj.get("phi"), a.dim * c.dim, c.dim * a.dim, f"{where}.phi")
    return EntwiningMap(c, a, phi)


def content_hash(payload: dict) -> str:
    "sha256 of the canonical JSON encoding of a payload."
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def to_payload(obj, name: str | None = None, metadata: dict | None = None) -> dict:
    "Serialize a typed object to its file payload."
    meta = dict(metadata or {})
    if name:
        meta["name"] = name
    doc: dict = {"format_version": FORMAT_VERSION}
    if isinstance(obj, HopfAlgebraData):
        doc["kind"] = "hopf"
        doc.update(_hopf_payload(obj))
    elif isinstance(obj, EntwiningMap):
        doc["kind"] = "entwining"
        doc.update(_entwining_payload(obj))
    elif isinstance(obj, DoubleQuantumGroup):
        doc["kind"] = "dqg"
        doc.update(_entwining_payload(obj.datum))
        doc["rmap"] = _matrix_to_rows(obj.rmap)
        doc["rmap_signature"] = RMAP_SIGNATURE
    elif isinstance(obj, EntwinedModule):
        doc["kind"] = "module"
        datum_payload = _entwining_payload(obj.datum)
        doc["datum"] = datum_payload
        doc["dim"] = obj.dim
        doc["action"] = _matrix_to_rows(obj.action)
        doc["coaction"] = _matrix_to_rows(obj.coaction)
        meta["datum_hash"] = content_hash(datum_payload)
    elif isinstance(obj, HomCA):
        doc["kind"] = "morphism"
        doc["map"] = _matrix_to_rows(obj.map)
        meta.setdefault(
            "datum_hash", content_hash(_entwining_payload(obj.datum))
        )
    elif isinstance(obj, Element):
        doc["kind"] = "element"
        doc["dim"] = obj.host.dim
        doc["coords"] = _vector_to_list(obj.coords)
    elif isinstance(obj, Functional):
        doc["kind"] = "functional"
        doc["dim"] = obj.host.dim
        doc["coords"] = _matrix_to_rows(obj.coords)
    elif isinstance(obj, BilinearForm):
        doc["kind"] = "form"
        doc["dim_left"] = obj.host_left.dim
        doc["dim_right"] = obj.host_right.dim
        doc["coords"] = _matrix_to_rows(obj.coords)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if meta:
        doc["metadata"] = meta
    return doc


def from_payload(doc: dict):
    "Parse a file payload into a typed object."
    if not isinstance(doc, dict):
        raise FileFormatError("top level: expected an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise FileFormatError(
            f"format_version: expected {FORMAT_VERSION!r}, got {doc.get('format_version')!r}"
        )
    kind = doc.get("kind")
    if kind not in KINDS:
        raise FileFormatError(f"kind: expected one of {', '.join(KINDS)}; got {kind!r}")
    meta = doc.get("metadata", {}) or {}
    if not isinstance(meta, dict):
        raise FileFormatError("metadata: expected an object")
    if kind == "hopf":
        return _parse_hopf_payload(doc, "hopf")
    if kind == "entwining":
        return _parse_entwining_payload(doc, "entwining")
    if kind == "dqg":
        e = _parse_entwining_payload(doc, "dqg")
        sig = doc.get("rmap_signature", RMAP_SIGNATURE)
        if sig != RMAP_SIGNATURE:
            raise FileFormatError(
                f"dqg.rmap_signature: expected {RMAP_SIGNATURE!r}, got {sig!r}"
            )
        rmap = _parse_matrix(
            doc.get("rmap"), e.a.dim * e.a.dim, e.c.dim * e.c.dim, "dqg.rmap"
        )
        return DoubleQuantumGroup(MonoidalEntwiningDatum(e), rmap)
    if kind == "module":
        e = _parse_entwining_payload(doc.get("datum"), "module.datum")
        stored = meta.get("datum_hash")
        if stored is not None and stored != content_hash(_entwining_payload(e)):
            raise FileFormatError("module.metadata.datum_hash: does not match the embedded datum")
        dim = _parse_dim(doc, "dim", "module")
        action = _parse_matrix(doc.get("action"), dim, dim * e.a.dim, "module.action")
        coaction = _parse_matrix(doc.get("coaction"), dim * e.c.dim, dim, "module.coaction")
        return EntwinedModule(MonoidalEntwiningDatum(e), dim, action, coaction)
    if kind == "morphism":
        rows = doc.get("map")
        if not isinstance(rows, list) or not rows or not isinstance(rows[0], list):
            raise FileFormatError("morphism.map: expected a nonempty matrix")
        mat = _parse_matrix(rows, len(rows), len(rows[0]), "morphism.map")
        return LoadedMorphism(mat, meta)
    if kind == "element":
        dim = _parse_dim(doc, "dim", "element")
        return LoadedElement(_parse_vector(doc.get("coords"), dim, "element.coords"), meta)
    if kind == "functional":
        dim = _parse_dim(doc, "dim", "functional")
        return LoadedFunctional(_parse_matrix(doc.get("coords"), 1, dim, "functional.coords"), meta)
    if kind == "form":
        dl = _parse_dim(doc, "dim_left", "form")
        dr = _parse_dim(doc, "dim_right", "form")
        return LoadedForm(
            _parse_matrix(doc.get("coords"), 1, dl * dr, "form.coords"), dl, dr, meta
        )
    raise AssertionError("unreachable")


def dumps(obj, name: str | None = None, metadata: dict | None = None) -> str:
    doc = to_payload(obj, name, metadata)
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from exc
    return from_payload(doc)


def save(obj, path, name: str | None = None, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(obj, name, metadata))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
