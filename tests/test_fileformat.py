"""Structure files: bit-exact round trips, rejection of malformed input."""

import json

import pytest

from entwine import corpus, fileformat as ff
from entwine.emodcat import std_module_CA
from entwine.entwining import DoubleQuantumGroup
from entwine.exactla import Matrix, Vector, rat_from_str
from entwine.hopfcore import BilinearForm, Element, Functional


def test_hopf_round_trip_bit_exact(h4):
    text = ff.dumps(h4, name="h4")
    again = ff.dumps(ff.loads(text), name="h4")
    assert text == again
    assert text.endswith("\n")


def test_round_trip_every_kind(h4, yd_h4, yd_dqg_h4):
    m = std_module_CA(yd_h4)
    g1, _ = corpus.h4_yd_pivotal_pair(yd_h4)
    objs = [
        h4,
        yd_h4.base,
        yd_dqg_h4,
        m,
        g1,
        Element(h4, Vector([0, 1, 0, 0])),
        Functional(h4, h4.counit),
        BilinearForm(h4, h4, Matrix([[1] + [0] * 15])),
    ]
    for obj in objs:
        text = ff.dumps(obj)
        loaded = ff.loads(text)
        assert ff.dumps(loaded) if isinstance(loaded, type(obj)) else True
        # structural equality at the payload level
        assert json.loads(text) == json.loads(
            ff.dumps(loaded)
            if not isinstance(loaded, (ff.LoadedMorphism, ff.LoadedElement,
                                       ff.LoadedFunctional, ff.LoadedForm))
            else text
        )


def test_hopf_structure_preserved(h4):
    loaded = ff.loads(ff.dumps(h4))
    assert loaded.mult == h4.mult
    assert loaded.comult == h4.comult
    assert loaded.antipode == h4.antipode
    assert loaded.unit == h4.unit
    assert loaded.counit == h4.counit
    assert loaded.basis_names == h4.basis_names


def test_module_round_trip_verifies_datum_hash(yd_h4):
    m = std_module_CA(yd_h4)
    text = ff.dumps(m)
    loaded = ff.loads(text)
    assert loaded.action == m.action and loaded.coaction == m.coaction
    doc = json.loads(text)
    assert "datum_hash" in doc["metadata"]
    doc["metadata"]["datum_hash"] = "0" * 64
    with pytest.raises(ff.FileFormatError):
        ff.from_payload(doc)


def test_rejects_non_canonical_rational(h4):
    text = ff.dumps(h4)
    bad = text.replace('"1"', '"2/4"', 1)
    with pytest.raises(ff.FileFormatError):
        ff.loads(bad)
    bad = text.replace('"1"', '"3/1"', 1)
    with pytest.raises(ff.FileFormatError):
        ff.loads(bad)


def test_repeated_bad_rational_names_its_first_row(h4):
    doc = json.loads(ff.dumps(h4))
    doc["mult"][1][3] = doc["mult"][2][0] = "2/4"
    with pytest.raises(ff.FileFormatError) as exc:
        ff.from_payload(doc)
    assert str(exc.value) == "hopf.mult[1]: non-canonical rational '2/4' (write 1/2)"


@pytest.mark.parametrize("value", [5, None, ["1"]], ids=["int", "null", "list"])
def test_non_string_entry_keeps_the_parse_error(h4, value):
    # the message is the one rat_from_str gives the entry itself
    with pytest.raises(TypeError) as raw:
        rat_from_str(value)
    for field, where in (("comult", "hopf.comult[3]"), ("unit", "hopf.unit")):
        doc = json.loads(ff.dumps(h4))
        row = doc[field][3] if field == "comult" else doc[field]
        row[0] = value
        with pytest.raises(ff.FileFormatError) as exc:
            ff.from_payload(doc)
        assert str(exc.value) == f"{where}: {raw.value}"


def test_each_distinct_rational_is_parsed_once_per_load(monkeypatch, yd_dqg_h4):
    text = ff.dumps(yd_dqg_h4)
    parsed = []
    monkeypatch.setattr(ff, "rat_from_str", lambda s: parsed.append(s) or rat_from_str(s))
    loaded = ff.loads(text)
    assert sorted(parsed) == sorted(set(parsed))
    assert loaded.rmap == yd_dqg_h4.rmap and loaded.datum.phi == yd_dqg_h4.datum.phi
    ff.loads(text)
    assert len(parsed) == 2 * len(set(parsed))


def test_rejects_truncated_and_malformed(h4):
    text = ff.dumps(h4)
    with pytest.raises(ff.FileFormatError):
        ff.loads(text[: len(text) // 2])
    with pytest.raises(ff.FileFormatError):
        ff.loads("{}")
    doc = json.loads(text)
    doc["kind"] = "banana"
    with pytest.raises(ff.FileFormatError):
        ff.from_payload(doc)
    doc = json.loads(text)
    doc["format_version"] = "2"
    with pytest.raises(ff.FileFormatError):
        ff.from_payload(doc)


def test_rejects_dimension_mismatch(h4):
    doc = json.loads(ff.dumps(h4))
    doc["mult"] = doc["mult"][:-1]
    with pytest.raises(ff.FileFormatError):
        ff.from_payload(doc)
    doc = json.loads(ff.dumps(h4))
    doc["antipode"][0] = doc["antipode"][0][:-1]
    with pytest.raises(ff.FileFormatError):
        ff.from_payload(doc)


def test_missing_basis_gets_default_names_and_a_short_one_is_rejected(h4):
    doc = json.loads(ff.dumps(h4))
    del doc["basis"]
    assert ff.from_payload(doc).basis_names == ("b0", "b1", "b2", "b3")
    doc["basis"] = ["1", "e", "x"]
    with pytest.raises(ff.FileFormatError, match=r"^hopf\.basis: expected a list of 4 names$"):
        ff.from_payload(doc)


def test_factor_order_declared_and_validated(yd_h4, yd_dqg_h4):
    doc = json.loads(ff.dumps(yd_h4.base))
    assert doc["phi_signature"] == "C(x)A -> A(x)C"
    doc["phi_signature"] = "A(x)C -> C(x)A"
    with pytest.raises(ff.FileFormatError):
        ff.from_payload(doc)
    doc = json.loads(ff.dumps(yd_dqg_h4))
    assert doc["rmap_signature"] == "C(x)C -> A(x)A"
    doc["rmap_signature"] = "backwards"
    with pytest.raises(ff.FileFormatError):
        ff.from_payload(doc)


def test_content_hash_is_stable(h4):
    p1 = ff.to_payload(h4)
    p2 = ff.to_payload(corpus.sweedler_h4())
    assert ff.content_hash(p1) == ff.content_hash(p2)


def test_save_load_files(tmp_path, h4, yd_dqg_h4):
    path = tmp_path / "h4.json"
    ff.save(h4, path, name="h4")
    assert ff.load(path).mult == h4.mult
    path2 = tmp_path / "q.json"
    ff.save(yd_dqg_h4, path2)
    q = ff.load(path2)
    assert isinstance(q, DoubleQuantumGroup)
    assert q.rmap == yd_dqg_h4.rmap
