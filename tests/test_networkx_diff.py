"""Differential checks against networkx on small random graphs.

networkx is a test-only reference; the module is skipped without it.
Modularity is checked on our own Louvain partition. The partition itself
is not compared with networkx's Louvain: ours is pinned to its seeded
visiting order and tie-breaks, and its Q can fall a few hundredths below
``louvain_communities`` on these graphs.
"""

import numpy as np
import pytest

from graphsample.community import detect_communities, modularity
from graphsample.graph import induced_edges
from graphsample.properties import assortativity, clustering, path_length_stats
from graphsample.samplers import _jump_candidates

from oracles import random_graph

nx = pytest.importorskip("networkx")

SEEDS = range(15)
TOL = 1e-9


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(map(tuple, g.edge_array().tolist()))
    return G


@pytest.fixture(params=SEEDS)
def pair(request):
    g = random_graph(60, 0.08, seed=request.param)
    return request.param, g, to_nx(g)


def test_induced_edges(pair):
    seed, g, G = pair
    rng = np.random.default_rng(seed)
    for size in (1, 10, 30, 60):
        nodes = np.sort(rng.choice(g.n, size=size, replace=False))
        want = sorted(tuple(sorted(e)) for e in G.subgraph(nodes.tolist()).edges)
        assert induced_edges(g, nodes).tolist() == [list(e) for e in want]


def test_jump_candidates(pair):
    _, g, G = pair
    for v in range(0, g.n, 7):
        for depth in (1, 2, 3):
            ball = nx.single_source_shortest_path_length(G, v, cutoff=depth)
            want = sorted(set(ball) - {v})
            assert _jump_candidates(g, v, depth).tolist() == want


def test_properties(pair):
    _, g, G = pair
    lcc = G.subgraph(max(nx.connected_components(G), key=len))
    cc, gcc = clustering(g)
    assert abs(gcc - nx.transitivity(G)) <= TOL
    assert abs(cc.mean() - nx.average_clustering(G)) <= TOL
    assert abs(assortativity(g) - nx.degree_assortativity_coefficient(G)) <= TOL
    mean = path_length_stats(g, mode="exact")[0]
    assert abs(mean - nx.average_shortest_path_length(lcc)) <= TOL


def test_path_length_pmf(pair):
    _, g, G = pair
    lcc = G.subgraph(max(nx.connected_components(G), key=len))
    hops = [d for _, row in nx.all_pairs_shortest_path_length(lcc) for d in row.values() if d > 0]
    support, counts = np.unique(hops, return_counts=True)
    _, dist, _ = path_length_stats(g, mode="exact")
    assert dist.support.tolist() == support.tolist()
    assert np.array_equal(dist.pmf, counts / counts.sum())


def test_modularity(pair):
    seed, g, G = pair
    labels = detect_communities(g, seed=seed)
    parts = [np.flatnonzero(labels == c).tolist() for c in range(labels.max() + 1)]
    assert abs(modularity(g, labels) - nx.community.modularity(G, parts)) <= TOL
