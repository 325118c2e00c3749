"""The bit-parallel BFS path kernel against scipy's dijkstra, networkx and by hand.

LCC sizes straddle the 64-source word (63, 64, 65) and reach a 17-word
block (1025). Small budgets force several source blocks and several
gather chunks per degree bucket, down to a hub whose padded row alone
exceeds the budget. A uniform random tree of 3,000 nodes runs for about
a hundred levels in both modes. Direct kernel calls walk a graph's
non-isolated nodes, or a union of some of its components, in place.
"""

from functools import cache

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsample import graph, properties
from graphsample.graph import build_graph, induced_subgraph, largest_connected_component
from graphsample.properties import _hop_histogram, path_length_stats

from oracles import dijkstra_path_oracle, path_graph, star


def tree_plus_isolated(n: int, extra: int, seed: int):
    """Random tree on n nodes plus ``extra`` random edges, plus one isolated node."""
    rng = np.random.default_rng(seed)
    us = list(range(1, n)) + rng.integers(n, size=extra).tolist()
    vs = [int(rng.integers(i)) for i in range(1, n)] + rng.integers(n, size=extra).tolist()
    keep = [(u, v) for u, v in zip(us, vs) if u != v]
    return build_graph([u for u, _ in keep], [v for _, v in keep], n=n + 1)


def uniform_tree(n: int, seed: int):
    """Uniform random labelled tree (Aldous-Broder on K_n); its depth grows like sqrt(n)."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(n, size=20 * n).tolist()
    seen, us, vs, cur = {steps[0]}, [], [], steps[0]
    for v in steps[1:]:
        if v not in seen:
            seen.add(v)
            us.append(cur)
            vs.append(v)
            if len(seen) == n:
                break
        cur = v
    assert len(seen) == n
    return build_graph(us, vs, n=n)


def hop_hist(g, src: np.ndarray) -> np.ndarray:
    """``_hop_histogram`` over g's non-isolated nodes from the sources among them.

    An isolated source reaches nothing, so dropping it leaves the histogram as it is.
    """
    nodes = np.flatnonzero(g.degrees())
    src = src[np.isin(src, nodes)]
    return _hop_histogram(g, src, nodes) if len(src) else np.zeros(1, dtype=np.int64)


def sparse_hop_oracle(g, src: np.ndarray) -> np.ndarray:
    """Hop histogram from ``src`` by scipy's dijkstra on g's CSR, in blocks of 256 sources."""
    from scipy.sparse import csgraph, csr_matrix

    a = csr_matrix((np.ones(len(g.indices)), g.indices, g.indptr), shape=(g.n, g.n))
    hist = np.zeros(1, dtype=np.int64)
    for first in range(0, len(src), 256):
        d = csgraph.dijkstra(a, directed=False, unweighted=True, indices=src[first:first + 256])
        d = np.bincount(d[np.isfinite(d) & (d > 0)].astype(np.int64))
        hist = np.pad(hist, (0, max(0, len(d) - len(hist))))
        hist[:len(d)] += d
    return hist


GRAPHS = {
    **{f"tree{n}": tree_plus_isolated(n, n // 2, seed=n) for n in (2, 63, 64, 65, 1025)},
    "star65": star(65),
    "path70": path_graph(70),
}
DEEP = uniform_tree(3000, seed=3)


@cache
def deep_case(mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(sources, oracle histogram) on DEEP, computed once per mode."""
    rng = np.random.default_rng(5)
    src = np.arange(DEEP.n) if mode == "exact" else np.sort(rng.choice(DEEP.n, size=100, replace=False))
    return src, sparse_hop_oracle(DEEP, src)


def patch_budget(monkeypatch, budget: str, nl: int) -> None:
    """Under ``two_words`` a frontier holds two words per LCC node, so blocks of
    at most 128 sources (9 on tree1025 in exact mode), and a gather nl // width
    rows of a bucket of that width; under ``tiny`` blocks hold 64 sources and a
    gather at most 7 words, so most buckets take dozens of gathers per level."""
    if budget == "two_words":
        monkeypatch.setattr(properties, "BFS_BUDGET", 2 * nl)
    elif budget == "tiny":
        monkeypatch.setattr(properties, "BFS_BUDGET", 7)


@pytest.mark.parametrize("budget", ["default", "two_words", "tiny"])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("name", list(GRAPHS))
def test_matches_dijkstra(name, mode, budget, monkeypatch):
    g = GRAPHS[name]
    patch_budget(monkeypatch, budget, len(largest_connected_component(g)))
    mean, dist, _ = path_length_stats(g, mode=mode, sources=100, seed=5)
    want_mean, want_hist = dijkstra_path_oracle(g, mode, sources=100, seed=5)
    support = np.flatnonzero(want_hist)
    assert mean == want_mean
    assert dist.support.tolist() == support.tolist()
    assert np.array_equal(dist.pmf, want_hist[support] / want_hist.sum())


# "tiny" would cost one gather call per few entries on every level of every 64-source block
@pytest.mark.parametrize("budget", ["default", "two_words"])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_deep_tree(mode, budget, monkeypatch):
    patch_budget(monkeypatch, budget, DEEP.n)
    src, want = deep_case(mode)
    hist = hop_hist(DEEP, src)
    assert len(hist) > 100
    assert np.array_equal(hist, want)


@pytest.mark.parametrize("budget", ["default", "tiny"])
def test_hand_computed_histograms(budget, monkeypatch):
    if budget == "tiny":
        monkeypatch.setattr(properties, "BFS_BUDGET", 3)
    # path on 5 nodes: 2 (5 - h) ordered pairs at h hops
    assert hop_hist(path_graph(5), np.arange(5)).tolist() == [0, 8, 6, 4, 2]
    # sources at both ends of that path: one node at each of 1..4 hops from each
    assert hop_hist(path_graph(5), np.array([0, 4])).tolist() == [0, 2, 2, 2, 2]
    # hub plus 5 leaves: 10 hub-leaf pairs at 1 hop, 5 * 4 leaf-leaf pairs at 2
    assert hop_hist(star(6), np.arange(6)).tolist() == [0, 10, 20]
    assert hop_hist(star(6), np.array([3])).tolist() == [0, 1, 4]


def test_hub_row_over_budget(monkeypatch):
    # one word per block; the hub's row of 299 entries is gathered alone, over the budget of 64
    monkeypatch.setattr(properties, "BFS_BUDGET", 64)
    assert hop_hist(star(300), np.arange(300)).tolist() == [0, 2 * 299, 299 * 298]
    assert hop_hist(star(300), np.array([0, 7])).tolist() == [0, 299 + 1, 298]


def test_isolated_nodes_direct(monkeypatch):
    # isolated ids around three components; the 66 non-isolated ids of all 150 make
    # blocks of 64 and 2 sources, so the buffers swap between blocks and levels
    g = tree_plus_isolated(60, 10, seed=1)
    us, vs = np.split(g.edge_array(), 2, axis=1)
    us = np.concatenate([us[:, 0], [100, 101, 102, 120]])
    vs = np.concatenate([vs[:, 0], [101, 102, 103, 121]])
    g = build_graph(us, vs, n=150)
    monkeypatch.setattr(properties, "BFS_BUDGET", 7)
    for src in (np.arange(150), np.array([60, 61, 99, 100, 149]), np.arange(0, 150, 3)):
        assert np.array_equal(hop_hist(g, src), sparse_hop_oracle(g, src))
    # two of the components, the tree and the path 100..103, walked inside g
    nodes = np.concatenate([np.arange(60), np.arange(100, 104)])
    for src in (nodes, np.array([0, 59, 100]), np.array([101, 103])):
        assert np.array_equal(_hop_histogram(g, src, nodes), sparse_hop_oracle(g, src))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=80),
    picks=st.lists(st.integers(0, 39), min_size=1, max_size=90),
    budget=st.sampled_from([1, 5, 64, 300, properties.BFS_BUDGET]),
)
def test_matches_networkx(n, edges, picks, budget):
    edges = [(u % n, v % n) for u, v in edges if u % n != v % n]
    g = build_graph([u for u, _ in edges], [v for _, v in edges], n=n)
    src = np.unique(np.array(picks) % n)
    nxg = nx.Graph(edges)
    nxg.add_nodes_from(range(n))
    hops = [d for s in src.tolist() for d in nx.single_source_shortest_path_length(nxg, s).values() if d]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(properties, "BFS_BUDGET", budget)
        got = hop_hist(g, src)
    assert got.tolist() == np.bincount(hops, minlength=1).tolist()


@pytest.mark.parametrize("name", ["path70", "tree65"])   # connected, and with an isolated node
def test_lcc_never_rebuilt(name, monkeypatch):
    g = GRAPHS[name]
    lcc = largest_connected_component(g)
    want = [path_length_stats(induced_subgraph(g, lcc), mode=m, sources=20, seed=3) for m in ("exact", "sampled")]
    calls = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(properties, "induced_subgraph", spy(induced_subgraph))
    monkeypatch.setattr(graph, "build_graph", spy(build_graph))
    got = [path_length_stats(g, mode=m, sources=20, seed=3) for m in ("exact", "sampled")]
    assert calls == []
    for (mean, dist, flags), (want_mean, want_dist, want_flags) in zip(got, want):
        assert mean == want_mean
        assert np.array_equal(dist.support, want_dist.support)
        assert np.array_equal(dist.pmf, want_dist.pmf)
        assert flags["lcc_fraction"] == len(lcc) / g.n
        assert {k: flags[k] for k in ("path_mode", "path_sources")} == \
               {k: want_flags[k] for k in ("path_mode", "path_sources")}
