"""Expansion sampling pinned by the order in which it visits nodes.

XS is a greedy heap walk, so a bookkeeping slip (a stale heap entry taken
as valid, a score off by one) can reorder its visits without changing
much else. Each pin hashes ``telemetry.visit_order`` together with the
finalized nodes and edges, for both seed rules on the three generator
models. The generated graphs are connected, so the max-degree rule never
draws from the RNG and its pins agree across seeds.
"""

import hashlib

import numpy as np
import pytest

from graphsample.generators import GeneratorConfig, generate
from graphsample.samplers import SamplerConfig, expansion_sample

GOLDEN = {
    ("ff", "uniform", 0): "7858e49002e1a2cc75557d13b1ea4d7af049e2a91fd4b57243abed90f0848951",
    ("ff", "uniform", 1): "845b20b7cce6a21a7864dbba438cec2d749d3bbab81044615109f8516128cab0",
    ("ff", "uniform", 2): "5c078f2dc312b8f07ad1eaf5a4dbf7b93213fe64c3b1988825bab5d0b9b930f2",
    ("ff", "max_degree", 0): "d18ced2020fa259909a4862bcdf802512d72eba6821090fc43aa9b3f5d2ccd21",
    ("ff", "max_degree", 1): "d18ced2020fa259909a4862bcdf802512d72eba6821090fc43aa9b3f5d2ccd21",
    ("ff", "max_degree", 2): "d18ced2020fa259909a4862bcdf802512d72eba6821090fc43aa9b3f5d2ccd21",
    ("sw", "uniform", 0): "c0b715dd87db103e6e801d38b61515324ee7f0eea8a02d63ff6dd1f16b485364",
    ("sw", "uniform", 1): "e03bd59b20a998cf4dfe1f4ae5bbcb1ed00ab6de591b73ad4f7d3c36156e3875",
    ("sw", "uniform", 2): "173959a1c607994ea1a6da64c47ab60b3ca3d396d61b264d7589cf4105465ddd",
    ("sw", "max_degree", 0): "e7474c9b5282aa683ae506e81e0495015d5252ca34db373b51dd8c5a0ed57ac5",
    ("sw", "max_degree", 1): "e7474c9b5282aa683ae506e81e0495015d5252ca34db373b51dd8c5a0ed57ac5",
    ("sw", "max_degree", 2): "e7474c9b5282aa683ae506e81e0495015d5252ca34db373b51dd8c5a0ed57ac5",
    ("mm", "uniform", 0): "e20a46219a6c8422ce0e243309573c02d626f80b76e2d732cc53b07d5cd6b86b",
    ("mm", "uniform", 1): "a26b773433b7527df60a438117efcea3acdb4577d339f04001ac0cb0b78245ff",
    ("mm", "uniform", 2): "153e0917b50468ad1f6885cf9efdd9ba743df67ce74564d664953a055958dde7",
    ("mm", "max_degree", 0): "40d73767b233c17c038cd50a5cbe37c634082d30415905bf5528a34210a0ef3b",
    ("mm", "max_degree", 1): "40d73767b233c17c038cd50a5cbe37c634082d30415905bf5528a34210a0ef3b",
    ("mm", "max_degree", 2): "40d73767b233c17c038cd50a5cbe37c634082d30415905bf5528a34210a0ef3b",
}


@pytest.fixture(scope="module")
def graphs():
    return {model: generate(GeneratorConfig(model=model, nodes=2000, seed=1))
            for model in ("ff", "sw", "mm")}


def digest(s) -> str:
    order = np.asarray(s.telemetry.visit_order, dtype=np.int64)
    nodes = np.ascontiguousarray(s.nodes, dtype=np.int64)
    edges = np.ascontiguousarray(s.edges, dtype=np.int64).reshape(-1, 2)
    return hashlib.sha256(order.tobytes() + nodes.tobytes() + edges.tobytes()).hexdigest()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("rule", ["uniform", "max_degree"])
@pytest.mark.parametrize("model", ["ff", "sw", "mm"])
def test_pinned_visit_order(graphs, model, rule, seed):
    s = expansion_sample(graphs[model], SamplerConfig("xs", phi=0.1, seed=seed, xs_seed_rule=rule))
    assert digest(s) == GOLDEN[(model, rule, seed)]
