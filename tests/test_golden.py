"""Golden outputs: the bytes each command writes for the bundled fixtures.

Every case runs the commands in-process through `lrnn.cli.main` and
compares one SHA-256 over their outputs with a pinned value:

    <fixture>/<family>   train (parameter file, report, stdout) and
                         predict under the trained parameters
    <fixture>/structure  ground (instances.csv, stats.csv) and export-dot

A change that moves a single byte of any of them fails here.  When an
output is meant to change, review the new outputs, then print the new
table with `PYTHONPATH=src python tests/test_golden.py` and paste it in.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from lrnn import FAMILIES
from lrnn.cli import main
from lrnn.fixtures import fixture_dir, fixture_names

TRAIN_ARGS = ["--lr", "0.5", "--epochs", "15", "--restarts", "2", "--seed", "3"]
STRUCTURE = "structure"

GOLDEN = {
    "bright_edges/godel": "9c903a5ec2b8ffef612cf4b8461e6eb17fa1ffdd37d339a70c3fd39169a21bdf",
    "bright_edges/ms": "0221a6e7cfc1f198c7577da1988f5b837951a6f1143758ad1437d55be0edc71e",
    "bright_edges/as": "01ceaaf7725d9feff3399ecbd785f90dc21f911403b6aad7c824eff4916f5f1b",
    "bright_edges/structure": "697c7c886338eb475faab7dbf9c2bfb0c09d7ef1a531f798d9c82a38397ccf15",
    "chains/godel": "97cff5393b1001278bc24a23694f658f2df59401216335fdc44ffdc946a83133",
    "chains/ms": "c38aad6ef5121224e5c75614747c26d8f00714e14037f2c7413a570bb6a36544",
    "chains/as": "aa597fa9ef0e39112db7bdd499d55582e6e033f9b9323606f1add28b10d5cc51",
    "chains/structure": "8eb5481a01612fae94703a71b7e26ec8742c876cab04b164bfebba169a86ed9d",
    "cnn/godel": "6d0c25649dbfddd42ac5ef97a7538e83419e70e60c182602b3990bbc9d7cd443",
    "cnn/ms": "1722880b04dbc89db4c70fab4025299dcab2deac3ce3b781ff19b8031b473da2",
    "cnn/as": "0cca47dde1487872d102bea6441b28644269a1fe189913f2011a4e8cd8582e94",
    "cnn/structure": "153a4a4574ba70bab67979cbe77a98ec481c67de2cfd6568f88c9eb1f33d8830",
    "explosives/godel": "8f3dc1081d7730d5188dfd53fd0d9fbe5068a2c4bd0ceaa79ded923172743caa",
    "explosives/ms": "b0ebeef4b5388aad8a207980e2d6d3a4a7a710dbec4a6309e82cd7622a26b1de",
    "explosives/as": "ec7bf22a3761efbcfb089ff97e50c9c3f947ab10273dfcb4b4161027e860027b",
    "explosives/structure": "05e5ab436d3ac3e771789e3e047e55cdc136985a9947ae48dfded68c6da277df",
    "family/godel": "0fad283196d659c417b539cc48f755d4b5f41f1fd5d83de7d60250f9835b935d",
    "family/ms": "d4f7579d226a8f71d133cc18ef36fc39eab903b42d02b45d5dcdc47b75690369",
    "family/as": "253b68323e83cf1f893d5a5cc68fe9bec613c283e043f7a9f15636e487dd13ae",
    "family/structure": "5acf33736e0b7e99f79fd60d6ffd44059d2d0ba0c6b033650131e1b34977281f",
    "generic_chains/godel": "a8912575f7e69c00606c15f5e5d94530c3f8771c374bab4a68168ccc21713d50",
    "generic_chains/ms": "e7c8d224449026a20f6318681893814fda3a875aa485139ce244b856b71cfa7f",
    "generic_chains/as": "2fc5bd03163e586fc1a193b3d47183c1098df754ef7837a534d0450e618e17b4",
    "generic_chains/structure": "415d349129f14f847d680a25b78d355e6537d41e2aba10dc3e44321c95c5244c",
    "horses/godel": "c0864feaab68290c4b6064f5cd4ae33b24622738aa2d415b9a9c3c53251b9e11",
    "horses/ms": "e77d8ef9383290f24648750d5d14bc34101b2661363fc8107e50642472df7ff5",
    "horses/as": "d87d9cb39e696ad54f0389626b58bada0da5fb08072fb564dbd630068be08232",
    "horses/structure": "fb0c3a45787aad78df26808be55f6acc98f48dd64fc5452c0882005bc58f335c",
    "pressure/godel": "6bdca79391a04aa93f2f74ed68a77750b8eadd61433083823bbc9c25a748be51",
    "pressure/ms": "57f60ae9d454b52776d6dd1264534199bc0140a5fb2be4f2592eee0e06d5a9ca",
    "pressure/as": "462eb8bd141990e1ffb495d6170fefe2af98b6dcfac2682d382bcb082ffafaed",
    "pressure/structure": "c1ccb5587d58292f9f7e089c8f6a031fccbb2675ef4515eba7d91f0b9f899c61",
    "soft_matching/godel": "5057775f3b2f636738d1e6140137c0f0b56bcd183ded692f9fdb9262f0228600",
    "soft_matching/ms": "36d20de1d84aa52851dac598777da7dc0f40fd29e6b630ba1791930113e8150b",
    "soft_matching/as": "e2e12ec4490d6493a053439152cffd866380e0f1aefcfe781e131fb9d0c7ff90",
    "soft_matching/structure": "e1b1ed81b9f00865dd7750ddb0816785f79217293b0ad9f2313442f5534c6e31",
}


def _cli(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue().encode("utf-8")


def _files(directory: Path, prefix: str) -> dict:
    return {f"{prefix}/{p.name}": p.read_bytes() for p in sorted(directory.iterdir())}


def case_outputs(name: str, family: str, workdir: Path) -> dict:
    """Output name -> bytes for one case."""
    d = fixture_dir(name)
    inputs = ["--template", str(d / "template.lrnn"), "--examples", str(d / "examples.lrnn")]
    if family == STRUCTURE:
        _cli(["ground", *inputs, "--out", str(workdir / "ground")])
        _cli(["export-dot", *inputs, "--out", str(workdir / "dot")])
        return {**_files(workdir / "ground", "ground"), **_files(workdir / "dot", "dot")}
    inputs += ["--family", family, "--queries", str(d / "queries.lrnn")]
    params, report, scores = workdir / "params.txt", workdir / "report.jsonl", workdir / "scores.csv"
    out = {"train.stdout": _cli(["train", *inputs, *TRAIN_ARGS, "--out-params", str(params),
                                 "--report", str(report)])}
    out["predict.stdout"] = _cli(["predict", *inputs, "--params", str(params), "--out", str(scores)])
    for path in (params, report, scores):
        out[path.name] = path.read_bytes()
    return out


def digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode("utf-8") + b"\0" + outputs[name] + b"\0")
    return h.hexdigest()


CASES = [f"{name}/{family}" for name in fixture_names() for family in (*FAMILIES, STRUCTURE)]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_hash(case, tmp_path):
    name, family = case.split("/")
    assert digest(case_outputs(name, family, tmp_path)) == GOLDEN.get(case), case


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{case}": "{digest(case_outputs(*case.split("/"), Path(tmp)))}",')
