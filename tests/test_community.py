import hashlib

import numpy as np
import pytest

from graphsample.community import detect_communities, modularity
from graphsample.generators import GeneratorConfig, generate
from graphsample.graph import build_graph

from oracles import complete_graph, louvain_oracle, modularity_oracle, random_graph

# SHA-256 of the int64 labels, computed with the dict-of-dicts Louvain
GOLDEN_GENERATED = {
    ("ff", 0): "c306b5cb7960f548326afa45d88ead14192ef69c988dc72eb1af737426cc92b8",
    ("ff", 1): "7f40c768681b545696dc8e644b5f9daa9ad70d62742d53bbd707194c3d235c97",
    ("sw", 0): "6a04a357b49390dda7be9c147c0170fa6511c9e3bc9d64af6f2ea32473368fab",
    ("sw", 1): "dd1aa5bbb9c6998a3aa5bfd6fd192a09c3ad37072ee8794d566a9246dff1e706",
    ("mm", 0): "ea23040153b2443c8892f3f3921b608546f2c71c04560b013905074844df3355",
    ("mm", 1): "9b5e75e6d89b2752310db7edfbec41b8c27ad94d1a5109a313b1729a428b596c",
}
GOLDEN_MIXED = {
    0: "959e7a1ee18e5123c756fb0b7930f3c1d9683a6672177c4177bc6c3d3beb70e8",
    1: "ec3e497769d55f7817b9a60d511aa505073531bf340e5e10f6fb584ee24986fd",
    2: "d476102c15f97c3618590d908477910d21f9d3bede13628fc9ec3d3e0e4f9874",
}


def mixed_components():
    """FF(150), SW(60, k=4), K5 and a 6-node path, with 9 isolated nodes between and after."""
    parts = [
        (0, generate(GeneratorConfig(model="ff", nodes=150, seed=2)).edge_array()),
        (152, generate(GeneratorConfig(model="sw", nodes=60, seed=3, sw_k=4)).edge_array()),
        (214, np.array([(a, b) for a in range(5) for b in range(a + 1, 5)])),
        (221, np.array([(i, i + 1) for i in range(5)])),
    ]
    u = np.concatenate([off + ea[:, 0] for off, ea in parts])
    v = np.concatenate([off + ea[:, 1] for off, ea in parts])
    return build_graph(u, v, n=230)


def digest(labels) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int64).tobytes()).hexdigest()


def two_triangles():
    return build_graph([0, 0, 1, 3, 3, 4], [1, 2, 2, 4, 5, 5])


class TestModularity:
    def test_two_disjoint_triangles(self):
        q = modularity(two_triangles(), np.array([0, 0, 0, 1, 1, 1]))
        assert q == pytest.approx(0.5, abs=1e-12)

    def test_single_community_is_zero(self):
        for g in (complete_graph(5), random_graph(30, 0.2, seed=1)):
            assert modularity(g, np.zeros(g.n, dtype=int)) == pytest.approx(0.0, abs=1e-12)

    def test_vs_direct_double_sum(self):
        rng = np.random.default_rng(7)
        for seed in range(6):
            g = random_graph(40, 0.12, seed=seed)
            labels = rng.integers(0, 4, size=g.n)
            # densify labels for the implementation's contract
            _, dense = np.unique(labels, return_inverse=True)
            assert modularity(g, dense) == pytest.approx(
                modularity_oracle(g, dense), abs=1e-9)

    def test_rejects_bad_partitions(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            modularity(g, np.array([0, 1, 2]))           # wrong length
        with pytest.raises(ValueError):
            modularity(g, np.array([0, 2, 2, 3]))        # non-dense ids
        with pytest.raises(ValueError):
            modularity(build_graph([], [], n=3), np.zeros(3, dtype=int))


class TestDetectCommunities:
    def test_deterministic_per_seed(self):
        g = random_graph(80, 0.08, seed=3)
        a = detect_communities(g, seed=5)
        b = detect_communities(g, seed=5)
        assert np.array_equal(a, b)

    def test_labels_dense(self):
        g = random_graph(50, 0.1, seed=2)
        labels = detect_communities(g, seed=0)
        assert labels.min() == 0
        assert len(np.unique(labels)) == labels.max() + 1

    def test_recovers_planted_split(self):
        # two K8 cliques with one bridge
        us, vs = [], []
        for base in (0, 8):
            for a in range(base, base + 8):
                for b in range(a + 1, base + 8):
                    us.append(a)
                    vs.append(b)
        us.append(7)
        vs.append(8)
        g = build_graph(us, vs)
        labels = detect_communities(g, seed=0)
        assert len(set(labels[:8].tolist())) == 1
        assert len(set(labels[8:].tolist())) == 1
        assert labels[0] != labels[8]

    def test_never_worse_than_single_community(self):
        for seed in range(5):
            g = random_graph(60, 0.08, seed=seed)
            labels = detect_communities(g, seed=seed)
            assert modularity(g, labels) >= 0.0

    def test_needs_edges(self):
        with pytest.raises(ValueError):
            detect_communities(build_graph([], [], n=4))


class TestIdenticalPartitions:
    """The CSR Louvain must reproduce the dict-of-dicts partitions exactly."""

    @pytest.mark.parametrize("model", ["ff", "sw", "mm"])
    def test_pinned_generated(self, model):
        g = generate(GeneratorConfig(model=model, nodes=1000, seed=1))
        for seed in (0, 1):
            assert digest(detect_communities(g, seed=seed)) == GOLDEN_GENERATED[(model, seed)]

    def test_pinned_isolated_nodes_and_components(self):
        g = mixed_components()
        assert (g.degrees() == 0).sum() == 9
        for seed, want in GOLDEN_MIXED.items():
            assert digest(detect_communities(g, seed=seed)) == want

    # cases 119, 122 and 302 hold gains that tie to within MIN_GAIN
    @pytest.mark.parametrize("case", [*range(50), 119, 122, 302])
    def test_matches_oracle(self, case):
        rng = np.random.default_rng(case)
        g = random_graph(int(rng.integers(5, 120)), float(rng.uniform(0.01, 0.3)), seed=case)
        for seed in range(3):
            assert np.array_equal(detect_communities(g, seed=seed), louvain_oracle(g, seed=seed))
