"""Fixed-seed samples pinned by hash on a fragmented graph.

The graph is a forest-fire giant plus 5-node path components, so FS
teleports, XS/RD/LS/HJ restart and HJ jumps all occur. Any change to a
sampler, to finalize or to the RNG call order shows up as a new digest.
"""

import hashlib

import numpy as np
import pytest

from graphsample.generators import GeneratorConfig, generate
from graphsample.graph import build_graph
from graphsample.samplers import METHODS, SamplerConfig, replay_check, sample, sample_subgraph

GIANT = 200
PATHS = 20

GOLDEN = {
    ("fs", "induced"): "0ddc61ca05693130e1cf91131f8f5ce6d02c735451ac958663a62b65beed3c53",
    ("fs", "collected"): "f274072b8aa1de7cd58d38ab8df378e919446a84e21215a8aaaa5204ff8d7425",
    ("xs", "induced"): "6634e25cca8d31ab793e41fc4aea53c7720c6bb1b4b9e4a860b958f873bce7a4",
    ("xs", "collected"): "a3dfea273ae978010408f599085810a5210c4f8b61c0773c8f0df8fa71a36c02",
    ("rd", "induced"): "d836800ba277dc6d0dbbfd45a3fd3e29d6b98686a852f40c7f8f533e39d339f0",
    ("rd", "collected"): "00608ff5386516fddbd0ccde821a101379c114b4570d7fe7a32a1510b0ae571e",
    ("ls", "induced"): "3b368fff49eabbcd20ad8c4ad6de9aed4c5dac98102b2edbffbe429338c48e7d",
    # LS's induction step is its induced mode; collected keeps its 231 traversal edges
    ("ls", "collected"): "03376d55429061d82a59531cef00bfb0123fed539a40582e1ac62263ab36fa0a",
    ("hj", "induced"): "c2a7e8c40643574978fbfad628199560a6fbb05470f26e64e090cfa3f173422a",
    ("hj", "collected"): "0a48393adf5ce0d296bcf409c169b9df9e5fc123d7d99503c5ddeeaefb622a3d",
}

# RD at a small phi with a large rho overshoots its budget and is trimmed
GOLDEN_TRIMMED_RD = {
    "induced": "d58690e80bb06aeb73e39413c002101da61d208d21c687ba25717e2ef25a30f3",
    "collected": "0dc411a0c278ec2eb664e87449cba3e164d62f461199b6bba457e4eef31c6865",
}


@pytest.fixture(scope="module")
def fragmented():
    ea = generate(GeneratorConfig(model="ff", nodes=GIANT, seed=7)).edge_array()
    first = GIANT + 5 * np.arange(PATHS, dtype=np.int64)[:, None]
    u = np.concatenate([ea[:, 0], (first + np.arange(4)).ravel()])
    v = np.concatenate([ea[:, 1], (first + np.arange(1, 5)).ravel()])
    return build_graph(u, v, n=GIANT + 5 * PATHS)


def digest(s) -> str:
    nodes = np.ascontiguousarray(s.nodes, dtype=np.int64)
    edges = np.ascontiguousarray(s.edges, dtype=np.int64).reshape(-1, 2)
    return hashlib.sha256(nodes.tobytes() + edges.tobytes()).hexdigest()


@pytest.mark.parametrize("mode", ["induced", "collected"])
@pytest.mark.parametrize("method", METHODS)
def test_pinned_sample(fragmented, method, mode):
    cfg = SamplerConfig(method, phi=0.8, seed=3, finalize_mode=mode,
                        fs_stall_limit=20, hj_stall_limit=20)
    s = sample(fragmented, cfg)
    assert digest(s) == GOLDEN[(method, mode)]
    t = s.telemetry
    # the fixture must keep exercising the dead-end paths it was chosen for
    if method == "fs":
        assert t.teleports > 0
    else:
        assert t.restarts > 0
    if method == "hj":
        assert t.jumps > 0
    replay_check(fragmented, s)

    sub = sample_subgraph(fragmented, s)
    assert sub.n == s.n_nodes
    relabelled = np.searchsorted(s.nodes, s.edges).reshape(-1, 2)
    assert np.array_equal(sub.edge_array(), relabelled)


@pytest.mark.parametrize("mode", ["induced", "collected"])
def test_pinned_trimmed_sample(fragmented, mode):
    s = sample(fragmented, SamplerConfig("rd", phi=0.1, seed=4, rd_rho=0.5, finalize_mode=mode))
    assert s.telemetry.trims > 0
    assert digest(s) == GOLDEN_TRIMMED_RD[mode]
    replay_check(fragmented, s)
