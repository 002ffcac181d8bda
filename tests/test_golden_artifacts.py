"""Every subcommand's artifact, config block included, pinned by sha256.

Anything on the path from the parsed arguments and the result dataclasses
to the written bytes that moves one byte of an artifact shows up here;
record a digest again only for an artifact that is meant to change.  Each
case runs in a temporary directory with a relative --input, so the echoed
input path is part of the digest, and without LPCONC_WORKERS, so the
echoed worker count is the one given on the command line.  The digests
hold for numpy 2.4 and the platform's libm; a library that moves a last
bit of a float moves them too.
"""

import hashlib
import math
import shlex

import pytest

from lpconc.cli import WORKERS_ENV, run

CASES = {
    "rates": "rates --dist uniform01 --p 0.5,2,19 --delta 0.2",
    "curve": "curve --dist uniform01 --p 0.1,1 --n 10,30 --M 200 --seed 3 --workers 2",
    "curve-failed": "curve --dist uniform:b=2 --p 0.5,1500 --n 10 --M 200 --seed 1",
    "curve-empirical": "curve --dist zeroinflated:a=0.3,base=normal --p 0.1,1 --n 20 "
    "--M 200 --normalization empirical-mu",
    "contrast": "contrast --dist normal --n 20 --p 0.5,1 --M 200 --seed 1",
    "contrast-empirical": "contrast --dist uniform01 --n 30 --p 0.01,2 --M 300 --seed 2 "
    "--normalization empirical-mu",
    "pstar": "pstar --dist twopoint:a=0.5 --n 100 --delta 0.1 --Delta 0.2",
    "pstar-mc": "pstar --dist zeroinflated:a=0.3,base=uniform01 --n 20 --delta 0.1 "
    "--Delta 0.2 --method monte-carlo --M 200",
    "embedsim": "embedsim --kinds dense,binary --M 100 --pairs 100 --seed 2",
    "embedsim-p": "embedsim --table concentration --kinds sparse --p 0.5,2 --M 100",
    "diagnose": "diagnose --input data.csv --p 0.5,1,2",
    "diagnose-per-column": "diagnose --input data.csv --p 0.5,2 --normalization per-column "
    "--standardize",
    "diagnose-zero-column": "diagnose --input data.csv --p 0.5,2 --normalization per-column "
    "--keep-constant",
    "perturb": "perturb --input data.csv --gap 0.2 --seed 4 --p 0.5,2",
    "perturb-per-column": "perturb --input data.csv --gap 0.3 --seed 1 --p 1,4 "
    "--normalization per-column",
    "validate": "validate --dist diffuniform --p-probe 0.5",
}

DIGESTS = {
    ("rates", "json"): "fc663cabdbd12eaffc6c55c15d0162ed7e911df39d5cb8f7e93683eb231e3aeb",
    ("rates", "csv"): "4ffe155a7513e597a198025cc918525dd58ae7e175199562a9e02191509ce7f8",
    ("curve", "json"): "20f70e2cbee74b2d6ebdc1dc76a2f6342a2fc0dd084b71eff7fb00af3c5f2cb8",
    ("curve", "csv"): "cc084d9cba54077008f3449f8b8e4e3a459a6738284bded6fb14a4d2d12c2780",
    ("curve-failed", "json"): "01c19a98b0659537d708cdeae3a4aa727d03a73c6ae189bf2b4ee664f6d3f3ee",
    ("curve-failed", "csv"): "cf8e9a26e894adff088acbfb068207cf823174c2dcebe86b3cdc11e411feda47",
    ("curve-empirical", "json"): "c02452317c9208415c7c0ba1d90f74dd8598d948868dafd30c11b5012f6a74c8",
    ("curve-empirical", "csv"): "1e7d9f355149b67e3b1673a3eef651c3983b0593a472be30ac89efdd29a2b443",
    ("contrast-empirical", "json"): "4443208270018998f4c60c64386fb3f0bf5c42a555554878571b67ea85399e2e",
    ("contrast-empirical", "csv"): "62269454ff7b8a5b6fbc7bf0aa64adb03504e59344cb16a32520892f4cd66d97",
    ("contrast", "json"): "2e178551ac91b5bb8a118e8c9d539bb48b7ef2c3544cba765c2dca2fe336d4c0",
    ("contrast", "csv"): "829239b8f131bc8737441d1191605ff0fb3c6d42e1daed2ad333072269a0598f",
    ("pstar", "json"): "9ea172baf260f8acc28e6638b6da88c7d62b1ac4673db2dbaf633b1d133b0b37",
    ("pstar", "csv"): "ab6a692ae1afd143edeffc2a6ee9ed7b923a313f08b76586b04dc32f1ca19244",
    ("pstar-mc", "json"): "4d202a9cda42fa0357bea350e2c8bce09dead5ce43be0d8bc038c22eaec25710",
    ("pstar-mc", "csv"): "277028cd55b8101fa1d658a8cda75cb7457925ce2a9c981c3e285a3a8887c700",
    ("embedsim", "json"): "7dc13d73a9c7c534bb038903380a828ce3c2d93cb21485ce90725d52ee4eafaf",
    ("embedsim", "csv"): "b8615320bf2e6bca460e36647711c7f7df82c85769c11726c514f66a67fd095c",
    ("embedsim-p", "json"): "a5bd3a3696d8278436f692d80535a98af768606eeb2f6334788a5b6c168f37b4",
    ("embedsim-p", "csv"): "2effee939f4e8097c05d75fe6b4ec31a1518e0ea1d16061c13c354f131ececf9",
    ("diagnose", "json"): "466198dd1ea096000d7e010591efc7d70015ce17019560285057f2be8722fb73",
    ("diagnose", "csv"): "4917845b69e4191b8cd89df6932ac56f3a7298e65d2e5532930a51f00636f9db",
    ("diagnose-per-column", "json"): "5162b6c00fa4dcdd0348f500bab018ec5ca425f2ebfcbb6caf2ed613021170f6",
    ("diagnose-per-column", "csv"): "fa19aeaac39bd8e5721df5f62ad17979516318eaf98be3393be643aa64d660b6",
    ("diagnose-zero-column", "json"): "668cec965e9f76d45e04941f2ecdad103062393d2682e8786de6064957cd245d",
    ("diagnose-zero-column", "csv"): "a45534ce3031aee69bfa45cd075e26f1fb1ba5fac74c2883755428336006c8e2",
    ("perturb", "json"): "a1b7f0fc6eea25020289e2bdd466f40658aabad98473830131a41d987f7e5786",
    ("perturb", "csv"): "3c06138a83cc1f15aaf18ccf17ce108515aa5905e26b9311e713cbfd62052a90",
    ("perturb-per-column", "json"): "27fbfaf1e32510a37183aefe0a0b158b19ef1a052e6d1bde596d5de3abbdd20f",
    ("perturb-per-column", "csv"): "63b0ed50435b6f4c8cde5248b1a49cabde25ef4a4bd4672681acaff8926ab91d",
    ("validate", "json"): "7aea7f9a30258edafb413069ae85d5c88430be10ac5c61a2cc9f7668b66ae352",
    ("validate", "csv"): "c82b3641463f2342fc82249851a92d1af4dfb0f82379f68481e07aa27366ac33",
}


def _write_data(path):
    # fixed text, no RNG: 60 rows of five columns, the last one all zero
    lines = ["a,b,c,d,z"]
    for i in range(60):
        cells = [math.sin(1.3 * i + 0.7 * j) * (j + 1) for j in range(4)]
        lines.append(",".join(f"{v:.6f}" for v in cells) + ",0")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name,fmt", sorted(DIGESTS))
def test_artifact_bytes_match_the_recorded_digest(name, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    _write_data(tmp_path / "data.csv")
    assert run(shlex.split(CASES[name]) + ["--format", fmt]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name, fmt]
