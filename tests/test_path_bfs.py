"""The bit-parallel BFS path kernel against scipy's dijkstra and by hand.

LCC sizes straddle the 64-source word (63, 64, 65) and reach a 17-word
block (1025). Small budgets force several source blocks and node chunks,
down to a star hub whose row alone exceeds a chunk.
"""

import numpy as np
import pytest

from graphsample import properties
from graphsample.graph import build_graph
from graphsample.properties import _hop_histogram, path_length_stats

from oracles import dijkstra_path_oracle, path_graph, star


def tree_plus_isolated(n: int, extra: int, seed: int):
    """Random tree on n nodes plus ``extra`` random edges, plus one isolated node."""
    rng = np.random.default_rng(seed)
    us = list(range(1, n)) + rng.integers(n, size=extra).tolist()
    vs = [int(rng.integers(i)) for i in range(1, n)] + rng.integers(n, size=extra).tolist()
    keep = [(u, v) for u, v in zip(us, vs) if u != v]
    return build_graph([u for u, _ in keep], [v for _, v in keep], n=n + 1)


GRAPHS = {
    **{f"tree{n}": tree_plus_isolated(n, n // 2, seed=n) for n in (2, 63, 64, 65, 1025)},
    "star65": star(65),
    "path70": path_graph(70),
}


@pytest.mark.parametrize("budget", ["default", "two_words", "tiny"])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("name", list(GRAPHS))
def test_matches_dijkstra(name, mode, budget, monkeypatch):
    g = GRAPHS[name]
    if budget == "two_words":   # blocks of 128 sources, one node chunk
        monkeypatch.setattr(properties, "BFS_BUDGET", 2 * len(g.indices))
    elif budget == "tiny":      # blocks of 64 sources, chunks of at most 7 neighbour entries
        monkeypatch.setattr(properties, "BFS_BUDGET", 7)
    mean, dist, _ = path_length_stats(g, mode=mode, sources=100, seed=5)
    want_mean, want_hist = dijkstra_path_oracle(g, mode, sources=100, seed=5)
    support = np.flatnonzero(want_hist)
    assert mean == want_mean
    assert dist.support.tolist() == support.tolist()
    assert np.array_equal(dist.pmf, want_hist[support] / want_hist.sum())


@pytest.mark.parametrize("budget", ["default", "tiny"])
def test_hand_computed_histograms(budget, monkeypatch):
    if budget == "tiny":
        monkeypatch.setattr(properties, "BFS_BUDGET", 3)
    # path on 5 nodes: 2 (5 - h) ordered pairs at h hops
    assert _hop_histogram(path_graph(5), np.arange(5)).tolist() == [0, 8, 6, 4, 2]
    # sources at both ends of that path: one node at each of 1..4 hops from each
    assert _hop_histogram(path_graph(5), np.array([0, 4])).tolist() == [0, 2, 2, 2, 2]
    # hub plus 5 leaves: 10 hub-leaf pairs at 1 hop, 5 * 4 leaf-leaf pairs at 2
    assert _hop_histogram(star(6), np.arange(6)).tolist() == [0, 10, 20]
    assert _hop_histogram(star(6), np.array([3])).tolist() == [0, 1, 4]
