"""Byte-identity of CLI output files against a recorded table.

A fixed command set runs through ``cli.main`` and every ``--out`` file is
hashed. The table holds the SHA-256 of each file as the code produced it
when the table was recorded. A refactor that should keep outputs
byte-identical must leave it passing; a change that alters output bytes
on purpose updates the table and says so in CHANGES.md.
"""

import hashlib

import pytest

from homgraph.cli import main

GRAPHS = ("benign-0000.json", "malware-0000.json")


def commands(root):
    """The command set, as argv lists with every path under ``root``."""
    corpus = root / "corpus"
    argvs = [
        ["gen", "--benign", "6", "--covert", "6", "--seed", "1", "--out", corpus],
        ["analyze", corpus, "--out", root / "analyze"],
        ["analyze", corpus, "--threshold", "1.5", "--out", root / "analyze-1.5"],
        ["eval", corpus, "--sweep", "1,3", "--folds", "3", "--out", root / "eval-sweep.json"],
        ["eval", "--features", root / "analyze" / "features.csv", "--folds", "3",
         "--out", root / "eval-features.json"],
        ["communities", corpus, "--out", root / "communities.json"],
    ]
    for name in GRAPHS:
        stem = name.removesuffix(".json")
        argvs.append(["partition", corpus / name, "--out", root / f"partition-{stem}.json"])
        argvs.append(["covertness", corpus / name, "--hops", "2",
                      "--out", root / f"covertness-{stem}.json"])
    return [[str(a) for a in argv] for argv in argvs]


def output_hashes(root):
    """Run the command set and hash every file it writes, by relative path."""
    for argv in commands(root):
        assert main(argv) == 0, argv
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


GOLDEN = {
    "analyze/features.csv":
        "b71789b723e841ac7190ee6c5d774e4b25cac6fc7feaa6fccf6b6cc9ff030e17",
    "analyze/partitions.json":
        "0e598182aa64e014540a5d6a9c526e3736d164094262b276406a50d03913c827",
    "analyze-1.5/features.csv":
        "a33c4b617544387b34b70a152bdd2b31d82da4148020801883a3bb0efe632e99",
    "analyze-1.5/partitions.json":
        "07b2ab6708b64f555b30ebd2801ad0098d656f5c4b0c75c833348bfc8b87dd4d",
    "communities.json":
        "522c1d7579af3d80f28cf73b16d6bb7792a82032a162436d004adc295f7dc222",
    "corpus/benign-0000.json":
        "494944c8eeb6968446ad4f5617046db4723f5ff5c593528ce2cf043635cbb0de",
    "corpus/benign-0001.json":
        "c5ea84e0d12d386014e7f5b991eb5f3516f0087faee849433654eeb553a2c640",
    "corpus/benign-0002.json":
        "4587a0e5a020bcb630a78e0f4a3a56069a28e8a6db517dc950a77e8e2bbdff2b",
    "corpus/benign-0003.json":
        "e3b556413861e3fb27ec18e34a816c8246bd2c45e1b1345e12a7116c1e7dd043",
    "corpus/benign-0004.json":
        "ba3618dede3d5b042f4cbd248a7c6a3987f571fdfae1a2d0be546868331b5d39",
    "corpus/benign-0005.json":
        "02ef0f93a07827ba7deb1c5795d4fec02d287839e585b03a7ad13b50b7359c4a",
    "corpus/malware-0000.json":
        "cf02eecd8cf6f7b75bb55c1d51669514880a25ff60c6d0576f1850a9eb8e0e23",
    "corpus/malware-0001.json":
        "139fba251b199df0ecdfd7ee5e655a1b5406930b73c88e134a1d0e77637a1390",
    "corpus/malware-0002.json":
        "87780698d0a59b1a8b17ff3445770b7ae75c423b2bcfbd20d1212bea8016b779",
    "corpus/malware-0003.json":
        "76ea3353513911c1c585fecc95c6621f8529172d05e23f1a5663a56090875e37",
    "corpus/malware-0004.json":
        "345a7eef22661cd79e6248cced1aaa83085aba79458a84c71faadc9eacec4bf5",
    "corpus/malware-0005.json":
        "d7459b65c32142f2bfeb97d38edcc785689b057f3b5a2a6b2ce9445eaaa2e5f9",
    "corpus/manifest.json":
        "090075f83205f5a5ae4d1822b586f62f44c8df21ff06ab659247897bf24d51a9",
    "covertness-benign-0000.json":
        "86ae130b8f5d42ba14db5c4223e4770d04cf152a866160f2aaf7673c4ce71b7c",
    "covertness-malware-0000.json":
        "31eb336b7457e11a0b6a8fc3d1237ba4193f242dcc8c2c2cc18240d4711f97b2",
    "eval-features.json":
        "d0b4a40b734a9be22d2de433461a4d39dca818688bbdcafe21c1ff96447deaf3",
    "eval-sweep.json":
        "4bf7a27c0b54c3e8bd97a5b244da0c6abc42a585f53b997b06a3bb1cc386933d",
    "partition-benign-0000.json":
        "c32bfda95358ee07727986cec79a9fa3f3138d12e2a89502eb0f8d12d96f9ffa",
    "partition-malware-0000.json":
        "332db58c9d723bf06a1ead26fb9d35fc194e7b8261f17671cccf257933502bdb",
}


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return output_hashes(tmp_path_factory.mktemp("golden"))


def test_same_files(produced):
    assert sorted(produced) == sorted(GOLDEN)


@pytest.mark.parametrize("path", sorted(GOLDEN))
def test_bytes_match_table(produced, path):
    assert produced.get(path) == GOLDEN[path]
