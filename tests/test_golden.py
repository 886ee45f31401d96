"""Golden digests of the command-line output over the exported corpus.

Each case runs one command in-process through click's CliRunner and pins
the SHA-256 of its exit code, its stdout and any file it writes, so the
reports (AC1/AC2 and R4 among them), finder families and built smash
constructions stay byte for byte the same whatever computes them.
"""

import hashlib

import pytest
from click.testing import CliRunner

from entwine.cli import main

ENTWININGS = ("hopfmod_h4", "long_h4", "long_kz2", "yd_h4", "yd_kz2")
DQGS = ("long_dqg_kz2", "yd_dqg_h4", "yd_dqg_kz2")
MONOIDAL = ("long_h4", "long_kz2", "yd_h4", "yd_kz2") + DQGS
HOPFS = ("dual_h4", "dual_kz2", "h4", "kz2", "kz3")


def _cases():
    cases = {}
    for name in ENTWININGS + DQGS:
        cases[f"check-datum-{name}"] = ["check", "datum", "{%s}" % name, "--report-out", "{out}"]
    for name in DQGS:
        cases[f"check-dqg-{name}"] = ["check", "dqg", "{%s}" % name, "--report-out", "{out}"]
    for datum, morph in (("yd_h4", "g1_yd_h4"), ("yd_h4", "g2_yd_h4"),
                         ("long_h4", "g_long_h4"), ("yd_h4", "unit_morphism_yd_h4")):
        cases[f"check-pivotal-{morph}"] = [
            "check", "pivotal", "--datum", "{%s}" % datum, "--morphism", "{%s}" % morph,
            "--report-out", "{out}",
        ]
    for dqg, morph in (("long_dqg_kz2", "g_ribbon_long_kz2"), ("yd_dqg_h4", "g1_yd_h4"),
                       ("yd_dqg_h4", "unit_morphism_yd_h4")):
        cases[f"check-ribbon-{dqg}-{morph}"] = [
            "check", "ribbon", "--dqg", "{%s}" % dqg, "--morphism", "{%s}" % morph,
            "--report-out", "{out}",
        ]
    for name in MONOIDAL:
        cases[f"find-pivotal-{name}"] = ["find", "pivotal", "--datum", "{%s}" % name]
    for name in DQGS:
        cases[f"find-ribbon-{name}"] = ["find", "ribbon", "--dqg", "{%s}" % name]
    for name in MONOIDAL:
        cases[f"build-smash-{name}"] = ["build", "smash", "--datum", "{%s}" % name, "-o", "{out}"]
        cases[f"build-cosmash-{name}"] = ["build", "cosmash", "--datum", "{%s}" % name,
                                          "-o", "{out}"]
    for name in HOPFS:
        cases[f"build-double-{name}"] = ["build", "double", "--hopf", "{%s}" % name, "-o", "{out}"]
    # several files in one run: reports in input order, --report-out holds an array
    cases["check-datum-multi"] = ["check", "datum", "{hopfmod_h4}", "{yd_h4}", "{long_kz2}",
                                  "--report-out", "{out}"]
    cases["check-dqg-multi-json"] = ["check", "dqg", "{long_dqg_kz2}", "{yd_dqg_h4}",
                                     "{yd_dqg_kz2}", "--format", "json", "--report-out", "{out}"]
    cases["check-hopf-multi"] = ["check", "hopf", "{h4}", "{kz2}", "{kz3}"]
    return cases


CASES = _cases()

GOLDEN = {
    "build-cosmash-long_dqg_kz2": "dd0ec079fb188535ed4cb0f88cf56fde41160ba23999bfcc9c5745a8995293ef",
    "build-cosmash-long_h4": "fc871596845630538982f0f9d16d46e728a4d1c1bada0236f2f777e778857d57",
    "build-cosmash-long_kz2": "f93175202837eeb75f56ea0b8c9e8cdda6e5ad54201571d35f530c3e6aff281f",
    "build-cosmash-yd_dqg_h4": "669b1dc22bac9e833ccb4ae38424cd00af9b9751c2387e1e83cab1a6a40fb913",
    "build-cosmash-yd_dqg_kz2": "f93175202837eeb75f56ea0b8c9e8cdda6e5ad54201571d35f530c3e6aff281f",
    "build-cosmash-yd_h4": "669b1dc22bac9e833ccb4ae38424cd00af9b9751c2387e1e83cab1a6a40fb913",
    "build-cosmash-yd_kz2": "f93175202837eeb75f56ea0b8c9e8cdda6e5ad54201571d35f530c3e6aff281f",
    "build-double-dual_h4": "4b3d9ae6221e74b87df25cf20dc60d392ce1891acca9c4262ee2efff6f71d6ea",
    "build-double-dual_kz2": "f70736fc956633be9c02972374142727b14a33da0b91096c1cba8adb89ae7568",
    "build-double-h4": "610b2a7680cf32b229a2f72ae6dbe2a1deb254275a5adb649432a28df79139ce",
    "build-double-kz2": "d7aa3fa1993fcc0043bea992568751c6d2bd6657ba720ff6657755458799e74a",
    "build-double-kz3": "be6e73012314d533b3bb1e2d8fa8845351d395e4f6cb123d22fb79888392b0e0",
    "build-smash-long_dqg_kz2": "7307a7d6a7d5ecaacea8367c2c85630ba6ff8f381b2103a5fca61f03e4443a6a",
    "build-smash-long_h4": "1dd2dcd21eb0a13ff09c0d021bec56b141c705febd99db09fc0a397668196900",
    "build-smash-long_kz2": "d64920ed2b0e57a52caa674fcc65d1502ce3cd7e75ff8ae3fcf90aeb90e11da2",
    "build-smash-yd_dqg_h4": "c9fdbfeb145d415773163689508046aadad22ab57edd4417e0bc0e10b7fa5d83",
    "build-smash-yd_dqg_kz2": "d64920ed2b0e57a52caa674fcc65d1502ce3cd7e75ff8ae3fcf90aeb90e11da2",
    "build-smash-yd_h4": "c9fdbfeb145d415773163689508046aadad22ab57edd4417e0bc0e10b7fa5d83",
    "build-smash-yd_kz2": "d64920ed2b0e57a52caa674fcc65d1502ce3cd7e75ff8ae3fcf90aeb90e11da2",
    "check-datum-hopfmod_h4": "685805fa535951c241177abf67280d27d3b5622cd90bb589a91088826e26a383",
    "check-datum-long_dqg_kz2": "655e21c01ef1fee0556a1a599f46791d266b54961899fe8b4802b71dd985ceaf",
    "check-datum-long_h4": "7e5b5fed104314adae297d0ebe5a03443fcffa1753e004cc86ca1c417b8bd727",
    "check-datum-long_kz2": "a41088f7ca04e31bf011f43efc97eb287c9f005af742877495e53a08c2b13e5a",
    "check-datum-multi": "02c1e410fc8e50ebea846fd4e514663fc22049f2f420c135a2cf572cf7cb19b7",
    "check-datum-yd_dqg_h4": "b017d993cde1673cedf164d7967b31b71411f8428352acb0347707f9c27d8ea1",
    "check-datum-yd_dqg_kz2": "852584c5e588afd0d0cafded453801f8e259a8235a9b2300b3adbaa6c76942ab",
    "check-datum-yd_h4": "820f73963a8a95c2701ad9236cd9525fe81fec0c53a20e89eeda1477aac26e95",
    "check-datum-yd_kz2": "c9d80d5fc3593c26cde6bb4f3552e4b2e0505023b13c71feb245ebc70e970e86",
    "check-dqg-long_dqg_kz2": "edd14586b009eb6f0e739acd91360fdc1fd12233396bc5d89193f95d8e96fa76",
    "check-dqg-multi-json": "dc161c2d9aba2bdbfe3a865017e1f5ef5e3e17bed503c0b1800a56bcb8632162",
    "check-dqg-yd_dqg_h4": "98736897cb3bb99b49eead7bbce8b02d02f061fa28d3acd60c462e6007a76f62",
    "check-dqg-yd_dqg_kz2": "1dbec3444abe6239322eda557c04beab1cafebbd0e8bbf8b2809c3ed65109afe",
    "check-hopf-multi": "c0eb5dd176c93aeeabc1a0dcc9e540f9208a45efc07917f0884b2f37cea263e0",
    "check-pivotal-g1_yd_h4": "191c2bda5fb1a770a77eb1d23994908ff4e198fe79bfb66e96e1636a7d2525bc",
    "check-pivotal-g2_yd_h4": "191c2bda5fb1a770a77eb1d23994908ff4e198fe79bfb66e96e1636a7d2525bc",
    "check-pivotal-g_long_h4": "191c2bda5fb1a770a77eb1d23994908ff4e198fe79bfb66e96e1636a7d2525bc",
    "check-pivotal-unit_morphism_yd_h4": "a7c2836ebc892a5590e5b0f4a7580cff65d3826509d56f799a7270f4a3e521e2",
    "check-ribbon-long_dqg_kz2-g_ribbon_long_kz2": "404e6f7f225428fb5c50e98c42ece55c37d85fee2780f5221705e0c86b60b188",
    "check-ribbon-yd_dqg_h4-g1_yd_h4": "3399f453430bf30160a208dd724fe043329b23d73baa19f4b0fcb7bd17449f88",
    "check-ribbon-yd_dqg_h4-unit_morphism_yd_h4": "860c63e8c1afa44fec0f8a89498af453a601734aae5479d9bf30441420250899",
    "find-pivotal-long_dqg_kz2": "9bda9d65cfef4a4c0a7194da9820b65c9861f6fb8a7f05d928e5fa1bbd444d82",
    "find-pivotal-long_h4": "1fda79268b5e8f40d95950f763075510536ade10af29ba2d12ac44613c57c5ea",
    "find-pivotal-long_kz2": "0295ca9562d400d4babbc3c72e4232be899d9ce161297f05effe2b3cdf951f6d",
    "find-pivotal-yd_dqg_h4": "af72460da596c50df6822586e5d09ddce9360d4935edb31a7ae78ad93f91887d",
    "find-pivotal-yd_dqg_kz2": "0295ca9562d400d4babbc3c72e4232be899d9ce161297f05effe2b3cdf951f6d",
    "find-pivotal-yd_h4": "af72460da596c50df6822586e5d09ddce9360d4935edb31a7ae78ad93f91887d",
    "find-pivotal-yd_kz2": "0295ca9562d400d4babbc3c72e4232be899d9ce161297f05effe2b3cdf951f6d",
    "find-ribbon-long_dqg_kz2": "52e87b0ed1d9e7573b3b5f4d68c8a42222301861ccd7529761a03616c593e922",
    "find-ribbon-yd_dqg_h4": "2b82abc18c584e4d2670d7a29f2e65504c9167eb166ada6a8161585baf94aca1",
    "find-ribbon-yd_dqg_kz2": "7005815396cf1410a59d211d954efe90193f6c3e0eeb07e6ae8759090966e61b",
}


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_corpus")
    runner = CliRunner()
    files = {}
    names = set(ENTWININGS + DQGS + HOPFS) | {
        "g1_yd_h4", "g2_yd_h4", "g_long_h4", "unit_morphism_yd_h4", "g_ribbon_long_kz2",
    }
    for name in sorted(names):
        path = root / f"{name}.json"
        res = runner.invoke(main, ["corpus", name, "-o", str(path)])
        assert res.exit_code == 0, res.output
        files[name] = str(path)
    return files


def digest(args, files, out) -> str:
    argv = [a.format(out=out, **files) for a in args]
    res = CliRunner().invoke(main, argv)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    text = f"exit={res.exit_code}\n{res.output}"
    if "{out}" in args:
        with open(out, encoding="utf-8") as fh:
            text += "\0file\0" + fh.read()
    # saved reports name their input file; pin the corpus name, not the path
    for name, path in files.items():
        text = text.replace(path, name)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case, corpus_files, tmp_path):
    assert digest(CASES[case], corpus_files, str(tmp_path / "out.json")) == GOLDEN[case]
