"""Independent brute-force oracles and small graph builders for tests.

Everything here deliberately avoids the library's own algorithms:
dense-matrix triple products, Floyd-Warshall, union-find, direct
summation of definitions. Slow on purpose, trusted by inspection.
``louvain_oracle`` is the earlier dict-of-dicts Louvain, kept verbatim
as the reference partition for the CSR implementation.
"""

from __future__ import annotations

import math

import numpy as np

from graphsample.community import modularity
from graphsample.graph import Graph, build_graph


# ---------------------------------------------------------------------------
# Builders


def complete_graph(n: int) -> Graph:
    us, vs = zip(*[(a, b) for a in range(n) for b in range(a + 1, n)])
    return build_graph(us, vs)


def star(n: int) -> Graph:
    """Star with n nodes total: hub 0 plus n-1 leaves."""
    return build_graph([0] * (n - 1), list(range(1, n)))


def path_graph(n: int) -> Graph:
    return build_graph(list(range(n - 1)), list(range(1, n)))


def cycle(n: int) -> Graph:
    return build_graph(list(range(n)), [(i + 1) % n for i in range(n)])


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < p, k=1)
    u, v = np.nonzero(mask)
    if len(u) == 0:
        u, v = np.array([0]), np.array([1 % max(n, 2)])
    return build_graph(u, v, n=n)


def barbell_two_k5() -> Graph:
    """Two K5s {0..4} and {5..9} joined by the bridge (4, 5)."""
    us, vs = [], []
    for base in (0, 5):
        for a in range(base, base + 5):
            for b in range(a + 1, base + 5):
                us.append(a)
                vs.append(b)
    us.append(4)
    vs.append(5)
    return build_graph(us, vs)


def three_k10_chain() -> Graph:
    """Three K10 communities bridged (9,10) and (19,20)."""
    us, vs = [], []
    for base in (0, 10, 20):
        for a in range(base, base + 10):
            for b in range(a + 1, base + 10):
                us.append(a)
                vs.append(b)
    us += [9, 19]
    vs += [10, 20]
    return build_graph(us, vs)


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edge_array():
        a[u, v] = 1
        a[v, u] = 1
    return a


# ---------------------------------------------------------------------------
# Property oracles


def degree_histogram_oracle(g: Graph) -> dict[int, float]:
    counts: dict[int, int] = {}
    for v in range(g.n):
        d = g.degree(v)
        counts[d] = counts.get(d, 0) + 1
    return {d: c / g.n for d, c in sorted(counts.items())}


def triangles_per_node_oracle(g: Graph) -> np.ndarray:
    """diag(A^3) / 2 via dense matrix products."""
    a = adjacency_matrix(g)
    return np.diag(a @ a @ a) // 2


def local_clustering_oracle(g: Graph) -> np.ndarray:
    """Pairwise neighbor checks, straight from the definition."""
    a = adjacency_matrix(g)
    out = np.zeros(g.n)
    for v in range(g.n):
        nb = np.flatnonzero(a[v])
        d = len(nb)
        if d < 2:
            continue
        links = 0
        for i in range(d):
            for j in range(i + 1, d):
                links += a[nb[i], nb[j]]
        out[v] = 2.0 * links / (d * (d - 1))
    return out


def global_clustering_oracle(g: Graph) -> float:
    a = adjacency_matrix(g)
    # trace(A^3) counts each triangle 6 times; closed triplets = 3 * triangles
    closed = int(np.trace(a @ a @ a)) // 2
    deg = a.sum(axis=1)
    triplets = int((deg * (deg - 1) // 2).sum())
    if triplets == 0:
        return 0.0
    return closed / triplets


def floyd_warshall_oracle(g: Graph) -> np.ndarray:
    a = adjacency_matrix(g).astype(np.float64)
    dist = np.where(a > 0, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(g.n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return dist


def average_path_length_oracle(g: Graph) -> float:
    """Mean over ordered reachable pairs inside the largest component."""
    dist = floyd_warshall_oracle(g)
    comp = union_find_components(g)
    sizes: dict[int, int] = {}
    for c in comp:
        sizes[c] = sizes.get(c, 0) + 1
    best_size = max(sizes.values())
    winners = [c for c, s in sizes.items() if s == best_size]
    # tie-break: component containing the smallest node id
    winner = min(winners, key=lambda c: min(i for i in range(g.n) if comp[i] == c))
    nodes = [i for i in range(g.n) if comp[i] == winner]
    vals = [dist[i, j] for i in nodes for j in nodes if i != j]
    return float(np.mean(vals))


def union_find_components(g: Graph) -> list[int]:
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edge_array():
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return [find(x) for x in range(g.n)]


def assortativity_oracle(g: Graph) -> float | None:
    deg = [g.degree(v) for v in range(g.n)]
    xs, ys = [], []
    for u, v in g.edge_array():
        xs += [deg[u], deg[v]]
        ys += [deg[v], deg[u]]
    if len(set(xs)) == 1:
        return None
    return float(np.corrcoef(xs, ys)[0, 1])


def modularity_oracle(g: Graph, labels: np.ndarray) -> float:
    """Direct double sum of the definition over all node pairs."""
    a = adjacency_matrix(g).astype(np.float64)
    k = a.sum(axis=1)
    m = g.m
    b = a - np.outer(k, k) / (2.0 * m)
    same = labels[:, None] == labels[None, :]
    return float((b * same).sum() / (2.0 * m))


def louvain_oracle(g: Graph, seed: int = 0) -> np.ndarray:
    """The dict-of-dicts Louvain that ``detect_communities`` replaced.

    Kept verbatim as the reference for identical partitions: same seeded
    ``rng.permutation`` per sweep, 100-sweep cap, ascending-id tie-break
    and 1e-12 gain threshold, adjacency as one dict per node.
    """
    if g.m == 0:
        raise ValueError("community detection needs at least one edge")
    rng = np.random.default_rng(seed)

    # current level: symmetric weighted adjacency dicts plus self-loop weights
    n = g.n
    adj: list[dict[int, float]] = [dict() for _ in range(n)]
    for u, v in g.edge_array():
        adj[u][int(v)] = adj[u].get(int(v), 0.0) + 1.0
        adj[v][int(u)] = adj[v].get(int(u), 0.0) + 1.0
    loops = np.zeros(n, dtype=np.float64)
    membership = np.arange(n, dtype=np.int64)   # original node -> current-level node
    total_weight = float(g.m)

    while True:
        labels, improved = _louvain_one_level(adj, loops, total_weight, rng)
        dense = _louvain_dense_labels(labels)
        membership = dense[membership]
        if not improved:
            break
        adj, loops = _louvain_aggregate(adj, loops, dense)
        if len(adj) <= 1:
            break

    out = _louvain_dense_labels(membership)
    # the Q < 0 fallback scores with the library's modularity, as the old code did
    if modularity(g, out) < 0.0:
        out = np.zeros(g.n, dtype=np.int64)
    return out


def _louvain_dense_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel to [0, k) in order of first appearance."""
    remap: dict[int, int] = {}
    out = np.empty(len(labels), dtype=np.int64)
    for i, c in enumerate(labels):
        c = int(c)
        if c not in remap:
            remap[c] = len(remap)
        out[i] = remap[c]
    return out


def _louvain_one_level(
    adj: list[dict[int, float]],
    loops: np.ndarray,
    total_weight: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """Local node moving; returns (community per node, whether any move happened)."""
    n = len(adj)
    node_deg = np.array([sum(nb.values()) for nb in adj], dtype=np.float64) + 2.0 * loops
    comm = np.arange(n, dtype=np.int64)
    comm_tot = node_deg.copy()
    m2 = 2.0 * total_weight

    improved = False
    moved = True
    sweeps = 0
    while moved and sweeps < 100:
        moved = False
        sweeps += 1
        for v in rng.permutation(n):
            v = int(v)
            cur = int(comm[v])
            link: dict[int, float] = {}
            for w, wt in adj[v].items():
                c = int(comm[w])
                link[c] = link.get(c, 0.0) + wt
            comm_tot[cur] -= node_deg[v]
            base = link.get(cur, 0.0) - comm_tot[cur] * node_deg[v] / m2
            best_c, best_gain = cur, 0.0
            for c in sorted(link):
                if c == cur:
                    continue
                gain = link[c] - comm_tot[c] * node_deg[v] / m2 - base
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            comm[v] = best_c
            comm_tot[best_c] += node_deg[v]
            if best_c != cur:
                moved = True
                improved = True
    return comm, improved


def _louvain_aggregate(
    adj: list[dict[int, float]],
    loops: np.ndarray,
    dense: np.ndarray,
) -> tuple[list[dict[int, float]], np.ndarray]:
    """Collapse communities into super-nodes; intra weight becomes loop weight."""
    k = int(dense.max()) + 1
    new_adj: list[dict[int, float]] = [dict() for _ in range(k)]
    new_loops = np.zeros(k, dtype=np.float64)
    for v, nb in enumerate(adj):
        cv = int(dense[v])
        new_loops[cv] += loops[v]
        for w, wt in nb.items():
            cw = int(dense[w])
            if cv == cw:
                if v < w:   # count each intra-community edge once
                    new_loops[cv] += wt
            else:
                new_adj[cv][cw] = new_adj[cv].get(cw, 0.0) + wt
    return new_adj, new_loops


def expansion_order_oracle(g: Graph, budget: int, seed: int, rule: str = "uniform") -> list[int]:
    """XS visit order from the definition, with no heap and no running counts.

    Each step recounts, for every node of N(S) minus S, its neighbours
    outside S union N(S), and takes the largest count, smallest id on
    ties. An empty frontier takes a uniform unsampled node, drawn the way
    the sampler draws it (the max-degree rule picks the first seed only).
    """
    rng = np.random.default_rng(seed)
    nbrs = [set(g.neighbors(v).tolist()) for v in range(g.n)]
    order: list[int] = []
    sampled: set[int] = set()
    while len(order) < budget:
        covered = sampled.union(*(nbrs[v] for v in sampled))
        frontier = covered - sampled
        if frontier:
            v = min(frontier, key=lambda w: (-len(nbrs[w] - covered), w))
        elif rule == "max_degree" and not order:
            v = min(range(g.n), key=lambda w: (-len(nbrs[w]), w))
        else:
            pool = [w for w in range(g.n) if w not in sampled]
            v = pool[int(rng.integers(len(pool)))]
        order.append(v)
        sampled.add(v)
    return order


def jsd_oracle(p: dict, q: dict, base: float = 2.0) -> float:
    """Term-by-term evaluation over dict pmfs."""
    support = sorted(set(p) | set(q))
    div = 0.0
    for s in support:
        ps, qs = p.get(s, 0.0), q.get(s, 0.0)
        ms = (ps + qs) / 2.0
        if ps > 0:
            div += 0.5 * ps * math.log(ps / ms, base)
        if qs > 0:
            div += 0.5 * qs * math.log(qs / ms, base)
    return math.sqrt(max(div, 0.0))


def edge_set_oracle(lines: list[str]) -> set[frozenset[int]]:
    """Hash-set dedup of an edge list, ignoring loops and direction."""
    out: set[frozenset[int]] = set()
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        a, b = stripped.split()[:2]
        a, b = int(a), int(b)
        if a != b:
            out.add(frozenset((a, b)))
    return out


def dijkstra_path_oracle(g: Graph, mode: str, sources: int = 256, seed: int = 0) -> tuple[float, np.ndarray]:
    """(mean, hop histogram) over the largest component by scipy's dijkstra.

    Expects a unique largest component. The LCC is found by union-find and
    its nodes kept in ascending id order; ``sampled`` draws the sources as
    ``path_length_stats`` does. hist[h] counts ordered pairs h >= 1 hops apart.
    """
    from scipy.sparse import csgraph, csr_matrix

    comp = np.asarray(union_find_components(g))
    labels, sizes = np.unique(comp, return_counts=True)
    nodes = np.flatnonzero(comp == labels[np.argmax(sizes)])
    a = csr_matrix(adjacency_matrix(g)[np.ix_(nodes, nodes)])
    if mode == "exact":
        src = np.arange(len(nodes))
    else:
        rng = np.random.default_rng(seed)
        src = np.sort(rng.choice(len(nodes), size=min(sources, len(nodes)), replace=False))
    d = csgraph.dijkstra(a, directed=False, unweighted=True, indices=src)
    d = d[np.isfinite(d) & (d > 0)].astype(np.int64)
    return float(d.sum()) / len(d), np.bincount(d)
