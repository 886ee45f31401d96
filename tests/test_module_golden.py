"""Golden digests of the entwined-module layer.

Each case builds one construction of ``emodcat`` on a corpus datum and pins
the SHA-256 of its reports (``to_dict()``) and of the ``rows()`` of every
action, coaction, evaluation and coevaluation it produced.  Besides the two
standard modules, every datum carries one module whose action has a single
entry bumped, so that FAIL witnesses are pinned as well as passes.  The
command-line goldens in ``test_golden.py`` never reach this layer.
"""

import hashlib
import json

import pytest

from entwine import corpus as C
from entwine.emodcat import (
    EntwinedModule,
    check_braiding_naturality,
    check_duality,
    check_entwined_module,
    double_right_dual,
    left_dual,
    right_dual,
    std_module_AC,
    std_module_CA,
    tensor_modules,
)
from entwine.exactla import Matrix, rat_to_str

DATUMS = ("yd_h4", "long_h4", "yd_kz4", "yd_dqg_h4")
MODULES = ("CA", "AC", "bumped")
CONSTRUCTIONS = ("module", "left_dual", "right_dual", "double_right_dual", "tensor", "braiding")


def _build_datum(name):
    h4 = C.sweedler_h4()
    if name == "yd_h4":
        return C.yd_datum(h4), None
    if name == "long_h4":
        return C.long_datum(h4, h4), None
    if name == "yd_kz4":
        return C.yd_datum(C.cyclic_group_algebra(4)), None
    q = C.yd_dqg(h4)
    return q.datum, q


def _bumped(d):
    "The C (x) A module with action entry (0, 1) raised by one: not a module."
    m = std_module_CA(d)
    rows = [list(r) for r in m.action.rows()]
    rows[0][1] += 1
    return EntwinedModule(d, m.dim, Matrix(rows), m.coaction)


def _module(d, kind):
    return {"CA": std_module_CA, "AC": std_module_AC, "bumped": _bumped}[kind](d)


def _rows(m):
    return [[rat_to_str(x) for x in row] for row in m.rows()]


def _structure(m):
    return {"action": _rows(m.action), "coaction": _rows(m.coaction)}


def _record(datum_name, kind, construction):
    d, q = _build_datum(datum_name)
    m = _module(d, kind)
    if construction == "module":
        return {"report": check_entwined_module(m).to_dict(), **_structure(m)}
    if construction in ("left_dual", "right_dual"):
        dd = (left_dual if construction == "left_dual" else right_dual)(m)
        return {
            "report": check_duality(m, dd).to_dict(),
            "dual_report": check_entwined_module(dd.dual_module).to_dict(),
            "dual": _structure(dd.dual_module),
            "ev": _rows(dd.ev),
            "coev": _rows(dd.coev),
        }
    if construction == "double_right_dual":
        dd = double_right_dual(m)
        return {"report": check_entwined_module(dd).to_dict(), **_structure(dd)}
    if construction == "tensor":
        t = tensor_modules(m, std_module_AC(d))
        return {"report": check_entwined_module(t).to_dict(), **_structure(t)}
    return {"report": check_braiding_naturality(m, m, q).to_dict()}


def _cases():
    return [
        f"{datum}-{kind}-{construction}"
        for datum in DATUMS
        for kind in MODULES
        for construction in CONSTRUCTIONS
        if construction != "braiding" or datum == "yd_dqg_h4"
    ]


def digest(case) -> str:
    datum, kind, construction = case.split("-")
    text = json.dumps(_record(datum, kind, construction), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "long_h4-AC-double_right_dual": "eeaa633420dea79ba3ad808ced01f89e9f8e518381e46e7208451af37d541706",
    "long_h4-AC-left_dual": "a93ccbd4baf5fb0df87c7b9082ca888e469cb8a404cdd0afb9a1c1c284bde4e5",
    "long_h4-AC-module": "48b99e9c52fec94d3d9e1c9aa8f2d1b20df29ff51354b26c2cddf1ad56e5ca63",
    "long_h4-AC-right_dual": "53050fe8cffee00c1febaee0aad0631f82c4796a6a6460ceb6c3d2e9072fe449",
    "long_h4-AC-tensor": "f17a183337a16c2ba3f1ada63e7e645c490eea7552d6cc306171cc52f794e747",
    "long_h4-CA-double_right_dual": "d201b3271dbe2b2439ff520baed15df0df8d138423fb89cda0e751f143012c57",
    "long_h4-CA-left_dual": "983155063a6720e6787d18765245d8aaa571af22fb82eb64dbf078feeb20b478",
    "long_h4-CA-module": "6210a5b29b2d5948525c389a77a0867ae17e8e592d8926519add65fae4e054c4",
    "long_h4-CA-right_dual": "40eff7ad78dcb20db092c52863a6a40a046a55f5cff018aed75a63f6de7cff36",
    "long_h4-CA-tensor": "ac08c15e2b899c1565c493ceaced5d19ad564f2308ff1f13bf16c5ee131e933c",
    "long_h4-bumped-double_right_dual": "a56e180969d4d8c22db1400175016348384fa4b8fc5c4e8f8674de0c18a3c6c1",
    "long_h4-bumped-left_dual": "23e2f00c4d0f1e19d04f1bb1f9c7c8d23dcc97d112a177dbbbbff347bf492ed3",
    "long_h4-bumped-module": "87e34cd8c4a5f20e1b98bc47267749cdf490bb9fa62201f57d1e805bafc32758",
    "long_h4-bumped-right_dual": "0724e9041ade8b84a82d38e30f6623df8e1f0e983a21f3fa6bb4c0fb8c9c724d",
    "long_h4-bumped-tensor": "3ba8b5c4ca5c8be6b63264ce30d05524fcef84ea000dd4f3d379f122981fe014",
    "yd_dqg_h4-AC-braiding": "d0bdacded63eb0c7f1c15c30cc4ad286eada3809afe1938854fe0620a5fdf2b2",
    "yd_dqg_h4-AC-double_right_dual": "7d955532281f495da83a3eff4a84000a86a5f07bb119864040feebe4474cee5d",
    "yd_dqg_h4-AC-left_dual": "c4498922092760d148a8306f3f9a0b4681f34678bd6031f5f55daf5e13036987",
    "yd_dqg_h4-AC-module": "6528f2b8538af54729b1beac4c6710aecc1f55c58a0ffb02c77eda033c968e2b",
    "yd_dqg_h4-AC-right_dual": "e4b681693df7250841dd8ce2b291ea907d9a666850638a988e9c1212a9a74b45",
    "yd_dqg_h4-AC-tensor": "3f010ce5f9b991e9c2b4f780e2e3bef68c808ca70f3cb5ad11de3a3f78a21382",
    "yd_dqg_h4-CA-braiding": "d0bdacded63eb0c7f1c15c30cc4ad286eada3809afe1938854fe0620a5fdf2b2",
    "yd_dqg_h4-CA-double_right_dual": "6e830b1deb807fbedabe1b5e5067c01823a264f29e102edb2e17b5015ecb36a1",
    "yd_dqg_h4-CA-left_dual": "4605001c894b79882d0306dad6e9b5cc9c99ae3e272fd44cffe8970cc778e08c",
    "yd_dqg_h4-CA-module": "856b0a714ff827035fade72b374798e771a96348cd51c958703ba92322e4fdc4",
    "yd_dqg_h4-CA-right_dual": "97afca7f78a4082f0363620830cceeac78787777b46bdadb8f73b61c53221621",
    "yd_dqg_h4-CA-tensor": "3d131cdc13afb9788eca05266620a25c00ad9361ca0b6945755254270dfd1d6d",
    "yd_dqg_h4-bumped-braiding": "d0bdacded63eb0c7f1c15c30cc4ad286eada3809afe1938854fe0620a5fdf2b2",
    "yd_dqg_h4-bumped-double_right_dual": "f5d754d147578981ec9412a1c6e4f3bdcc0a9b9fb522887070b0291f1596f9b3",
    "yd_dqg_h4-bumped-left_dual": "93ad845764cfe3b5d491cf42db609491313b2c8c364421e223bf15aefb0611b7",
    "yd_dqg_h4-bumped-module": "585c23df6512f974e2487f6a1ded4484291938ac0e2a7f2255c99977125baeae",
    "yd_dqg_h4-bumped-right_dual": "7ffc8cb4797d9629254a324b5ce18ae34a8069cd75ac1b1cf8a19348a157057c",
    "yd_dqg_h4-bumped-tensor": "ed686b028e2abea5a92bbe1b63db7408253f1e48d2df8e0ab1505e029257932c",
    "yd_h4-AC-double_right_dual": "7d955532281f495da83a3eff4a84000a86a5f07bb119864040feebe4474cee5d",
    "yd_h4-AC-left_dual": "c4498922092760d148a8306f3f9a0b4681f34678bd6031f5f55daf5e13036987",
    "yd_h4-AC-module": "6528f2b8538af54729b1beac4c6710aecc1f55c58a0ffb02c77eda033c968e2b",
    "yd_h4-AC-right_dual": "e4b681693df7250841dd8ce2b291ea907d9a666850638a988e9c1212a9a74b45",
    "yd_h4-AC-tensor": "3f010ce5f9b991e9c2b4f780e2e3bef68c808ca70f3cb5ad11de3a3f78a21382",
    "yd_h4-CA-double_right_dual": "6e830b1deb807fbedabe1b5e5067c01823a264f29e102edb2e17b5015ecb36a1",
    "yd_h4-CA-left_dual": "4605001c894b79882d0306dad6e9b5cc9c99ae3e272fd44cffe8970cc778e08c",
    "yd_h4-CA-module": "856b0a714ff827035fade72b374798e771a96348cd51c958703ba92322e4fdc4",
    "yd_h4-CA-right_dual": "97afca7f78a4082f0363620830cceeac78787777b46bdadb8f73b61c53221621",
    "yd_h4-CA-tensor": "3d131cdc13afb9788eca05266620a25c00ad9361ca0b6945755254270dfd1d6d",
    "yd_h4-bumped-double_right_dual": "f5d754d147578981ec9412a1c6e4f3bdcc0a9b9fb522887070b0291f1596f9b3",
    "yd_h4-bumped-left_dual": "93ad845764cfe3b5d491cf42db609491313b2c8c364421e223bf15aefb0611b7",
    "yd_h4-bumped-module": "585c23df6512f974e2487f6a1ded4484291938ac0e2a7f2255c99977125baeae",
    "yd_h4-bumped-right_dual": "7ffc8cb4797d9629254a324b5ce18ae34a8069cd75ac1b1cf8a19348a157057c",
    "yd_h4-bumped-tensor": "ed686b028e2abea5a92bbe1b63db7408253f1e48d2df8e0ab1505e029257932c",
    "yd_kz4-AC-double_right_dual": "10be0e046650d3795d5bfc2986b1979f68c649709f5318b3e15cadb456d8f94c",
    "yd_kz4-AC-left_dual": "23f62006037c0065b1e04130af50c5b3f1c475456833d828d90bc97604a1e479",
    "yd_kz4-AC-module": "10be0e046650d3795d5bfc2986b1979f68c649709f5318b3e15cadb456d8f94c",
    "yd_kz4-AC-right_dual": "23f62006037c0065b1e04130af50c5b3f1c475456833d828d90bc97604a1e479",
    "yd_kz4-AC-tensor": "6fcf7a12ceb2b631f3bf9d863561ace657d1cf58872a0025deb676c0d3f2a472",
    "yd_kz4-CA-double_right_dual": "e53f14cf8ba0bd5b1c50aec4edbd89cee59bf426fa4aac91222ae9a2fd88f4f9",
    "yd_kz4-CA-left_dual": "f6bd9faa056bdd9ab4c372e64d84f23fe5ab340b14f03c69efdf331d3daa004c",
    "yd_kz4-CA-module": "e53f14cf8ba0bd5b1c50aec4edbd89cee59bf426fa4aac91222ae9a2fd88f4f9",
    "yd_kz4-CA-right_dual": "f6bd9faa056bdd9ab4c372e64d84f23fe5ab340b14f03c69efdf331d3daa004c",
    "yd_kz4-CA-tensor": "cae78b86a74fbd8bd2361e317bf34b442f2d62ea385514a51deb8105caa38b51",
    "yd_kz4-bumped-double_right_dual": "ad450dc4b48f8d3783b99919b14318cf8cd64e828de72da3aee4b9cca560e859",
    "yd_kz4-bumped-left_dual": "2432be74a43fdf268ed073ae6451c06bd89a89c4379e83d9582bedc147aa3327",
    "yd_kz4-bumped-module": "ad450dc4b48f8d3783b99919b14318cf8cd64e828de72da3aee4b9cca560e859",
    "yd_kz4-bumped-right_dual": "ba2ce83a65faf30d2c0f759e75f240b76f6612d22ef5ae7c660930d1c8952e75",
    "yd_kz4-bumped-tensor": "fcf54b7ebed0e9d70e09791d4c90e98730d608d72affd78325ecaca40a196880",
}


@pytest.mark.parametrize("case", _cases())
def test_module_golden_digest(case):
    assert digest(case) == GOLDEN[case]
