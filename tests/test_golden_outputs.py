"""Byte-identity of CLI output files against recorded tables.

A fixed command set runs through ``cli.main`` and every ``--out`` file is
hashed. Each table holds the SHA-256 of each file as the code produced it
when the table was recorded. A refactor that should keep outputs
byte-identical must leave them passing; a change that alters output bytes
on purpose updates the table and says so in CHANGES.md.

The first table runs on a generated corpus. The second runs on graph files
written here, shaped for what the generator never makes: non-dense node
ids (one at least 2**63), an isolated node, duplicate, self-loop and mutual
input edges, a hub with 55 callers, sensitive APIs in many communities, one
entry matched by two nodes two hops apart, and a catalog whose entries
nest (one begins with another). One more graph holds a dense directed
payload block, so the census behind its features lists thousands of
triangles.
"""

import hashlib
import json
import random

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
    ]
    for name in GRAPHS:
        stem = name.removesuffix(".json")
        argvs.append(["partition", corpus / name, "--out", root / f"partition-{stem}.json"])
        argvs.append(["covertness", corpus / name, "--hops", "2",
                      "--out", root / f"covertness-{stem}.json"])
    return [[str(a) for a in argv] for argv in argvs]


def output_hashes(root, argvs):
    """Run ``argvs`` and hash every file under ``root``, by relative path."""
    for argv in argvs:
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


SHAPED_CATALOG = ("api.Net", "api.Net.send", "api.Tel.id", "api.Sms", "api.Loc",
                  "api.File", "api.Hub")
SHAPED_GRAPHS = 8
CLUSTERS = 8
CLUSTER_SIZE = 9
HUB_CALLERS = 55
BIG_ID = 2**63 + 7


def shaped_doc(index):
    """One wire-format document; even indices are benign, odd are malware.

    Eight clusters of nine nodes with dense directed edges inside and a few
    across. A sensitive API sits in each of clusters 0 to 5; cluster 1 holds
    two ``api.Tel.id`` nodes joined through a third. The hub ``api.Hub.log``
    is called by 55 one-call wrappers, each called from a cluster node.
    Malware graphs wire cluster 5 to the other clusters by a single edge.
    """
    rng = random.Random(index)
    cluster_nodes = CLUSTERS * CLUSTER_SIZE
    count = cluster_nodes + 1 + HUB_CALLERS + 1
    ids = [5 + 11 * k + k % 3 + 1000 * index for k in range(count - 1)] + [BIG_ID]
    # The largest id sits in cluster 2, so it enters edges and a community.
    cluster_ids = [ids[-1], *ids[:cluster_nodes - 1]]
    hub, *rest = ids[cluster_nodes - 1:-1]
    wrappers, isolated = rest[:HUB_CALLERS], rest[HUB_CALLERS]
    clusters = [cluster_ids[c::CLUSTERS] for c in range(CLUSTERS)]
    clusters[2].insert(0, clusters[0].pop(0))

    names = {nid: f"app.pkg.C{k}.m{k}" for k, nid in enumerate(ids)}
    names[hub] = "app.util.api.Hub.log"
    names[isolated] = "app.unused.Dead.code"
    sensitive = ("api.Net.send()V", "api.Tel.id", "api.Sms.send", "api.Loc.get",
                 "api.File.open", "api.Net.open")
    for c, api in enumerate(sensitive):
        names[clusters[c][0]] = f"lib.{api}"
    names[clusters[1][2]] = "lib.api.Tel.id()J"

    edges = []
    for members in clusters:
        for u in members:
            for v in members:
                if u != v and rng.random() < 0.35:
                    edges.append([u, v])
        edges.append([members[0], members[1]])
        edges.append([members[1], members[2]])
        edges.append([members[1], members[0]])  # mutual
    cross = 0.004 if index % 2 else 0.02
    for a, members in enumerate(clusters):
        for b, others in enumerate(clusters):
            if a == b or (index % 2 and 5 in (a, b)):
                continue
            edges += [[u, v] for u in members for v in others if rng.random() < cross]
    if index % 2:
        edges.append([clusters[5][3], clusters[4][3]])
    for k, w in enumerate(wrappers):
        callers = clusters[k % CLUSTERS]
        edges.append([callers[k % len(callers)], w])
        edges.append([w, hub])
    edges += edges[:6]  # duplicates
    edges += [[u, u] for u in clusters[3][:3]]  # self-loops
    nodes = [{"id": nid, "name": names[nid]} for nid in reversed(ids)]
    label = "malware" if index % 2 else "benign"
    return {"app_id": f"shaped-{index}", "label": label, "nodes": nodes, "edges": edges}


def dense_doc():
    """A malware graph whose payload is a directed block of 60 nodes: each
    pair is linked with probability 0.5 and a third of links are mutual,
    closing thousands of triangles. A dozen block nodes call nested
    sensitive APIs. The block hangs off 120 sparsely linked benign nodes by
    three edges, so it stays one weakly coupled, suspicious community."""
    rng = random.Random(60)
    ids = [3 + 7 * k for k in range(180)]
    block, rest = ids[:60], ids[60:]
    names = {nid: f"app.pkg.C{k}.m{k}" for k, nid in enumerate(ids)}
    for k, nid in enumerate(rng.sample(block, 12)):
        names[nid] = f"lib.{('api.Net.send()V', 'api.Net.open', 'api.Sms.send')[k % 3]}"
    edges = []
    for members, prob in ((block, 0.5), (rest, 0.03)):
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if rng.random() < prob:
                    edges.append([u, v] if rng.random() < 0.5 else [v, u])
                    if rng.random() < 0.3:
                        edges.append(edges[-1][::-1])
    edges += [[block[k], rest[k]] for k in range(3)]
    nodes = [{"id": nid, "name": names[nid]} for nid in ids]
    return {"app_id": "dense-0", "label": "malware", "nodes": nodes, "edges": edges}


def shaped_commands(root):
    """Write the shaped graphs and catalog under ``root``; the command set."""
    corpus = root / "graphs"
    corpus.mkdir()
    for index in range(SHAPED_GRAPHS):
        text = json.dumps(shaped_doc(index), separators=(",", ":"))
        (corpus / f"shaped-{index}.json").write_text(text + "\n", encoding="utf-8")
    catalog = root / "catalog.txt"
    catalog.write_text("\n".join(SHAPED_CATALOG) + "\n", encoding="utf-8")
    dense = root / "dense"
    dense.mkdir()
    text = json.dumps(dense_doc(), separators=(",", ":"))
    (dense / "dense-0.json").write_text(text + "\n", encoding="utf-8")
    argvs = [
        ["analyze", corpus, "--catalog", catalog, "--threshold", "0.2",
         "--out", root / "analyze"],
        ["eval", corpus, "--catalog", catalog, "--sweep", "0.03,0.2,1", "--folds", "2",
         "--out", root / "eval-sweep.json"],
        ["analyze", dense, "--catalog", catalog, "--out", root / "analyze-dense"],
    ]
    for index in (0, 1):
        graph = corpus / f"shaped-{index}.json"
        argvs.append(["partition", graph, "--catalog", catalog, "--threshold", "0.2",
                      "--out", root / f"partition-{index}.json"])
        argvs.append(["covertness", graph, "--catalog", catalog, "--hops", "2",
                      "--out", root / f"covertness-{index}.json"])
    return [[str(a) for a in argv] for argv in argvs]


SHAPED_GOLDEN = {
    "analyze-dense/features.csv":
        "a313a7853b8c880848c54523b1289832c9c3dc8ca4314690616bfbd43af4ecbe",
    "analyze-dense/partitions.json":
        "b347371cf02cd75a59c70f3d510f99b94a446c6adef80325b2348749692a247a",
    "analyze/features.csv":
        "49fc9964fee5c47f7e61320b8fdf740f1b28737ac29994db2532718c38f628f9",
    "analyze/partitions.json":
        "4d2a7b0a759bafb86d0b75c6010de87f6cfd19cb0e244dbb3f7c8d7f0ac3c1a9",
    "catalog.txt":
        "46b802764a0f6e7e660d7f17d9f68021445d248231cd7858d1e0ce98e66878d3",
    "covertness-0.json":
        "28fa7f4275259452ffa086b8a09a58c3e4bb15b2bb2d2a409c51e57bdc0dad09",
    "covertness-1.json":
        "e999674c6e62449271eade4af135bf868d952c40b00c1904c077fdbcc9012655",
    "dense/dense-0.json":
        "75749e8777b5fcdeff51f16fba7e4e181e85df8022b4770e8a481a4b44af44f8",
    "eval-sweep.json":
        "59156873dc1e89030abfb371c2c6beffc04802433aa2172dad74a562c37ddbd5",
    "graphs/shaped-0.json":
        "8a11fa20edaa0fd8ef801d9e4f869e3c91b7271a218efa592848df0532b27338",
    "graphs/shaped-1.json":
        "7673268d1bff3296fe3fe7913513f71b94580177f2e12e5181de3a8e567dddd3",
    "graphs/shaped-2.json":
        "f896bee293e8451e53c593276b261aa2708cfe82d8ac00439d8dbbfd22f5d5b3",
    "graphs/shaped-3.json":
        "2a89d52d1664b6db07e31526a60aff96d2aec68d765146c170aef613fad93ca7",
    "graphs/shaped-4.json":
        "f926c3a1bff7e9bf6d4dd4c7ac452afc91108cdf0e85907b657b534b9639e326",
    "graphs/shaped-5.json":
        "22856a3b782bca4feb0f6ff24504f2e27a594c7f50626b105eaef18f13bd9438",
    "graphs/shaped-6.json":
        "053ec0e0c314554cb36b7528d87f2f28f270c8db6f9c611a1286d9f8c29bb254",
    "graphs/shaped-7.json":
        "d6716463d2b5db5602ba953e6c58d1443cbc59d824587924defeeb7a150ea26c",
    "partition-0.json":
        "3f6bbef2d8bb513b02ac1d2b40d14726c0e0e49ad66e7bb7f9bd0214eb9e719c",
    "partition-1.json":
        "56df01d0bf84ddb8932c211c2e877ed93b2a20317e3633f018e2fd549119c671",
}


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return output_hashes(root, commands(root))


@pytest.fixture(scope="module")
def shaped_produced(tmp_path_factory):
    root = tmp_path_factory.mktemp("shaped")
    return output_hashes(root, shaped_commands(root))


def test_same_files(produced):
    assert sorted(produced) == sorted(GOLDEN)


@pytest.mark.parametrize("path", sorted(GOLDEN))
def test_bytes_match_table(produced, path):
    assert produced.get(path) == GOLDEN[path]


def test_shaped_same_files(shaped_produced):
    assert sorted(shaped_produced) == sorted(SHAPED_GOLDEN)


@pytest.mark.parametrize("path", sorted(SHAPED_GOLDEN))
def test_shaped_bytes_match_table(shaped_produced, path):
    assert shaped_produced.get(path) == SHAPED_GOLDEN[path]
