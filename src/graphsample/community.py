"""Seeded greedy modularity maximization (Louvain) and the modularity score.

Louvain (Blondel et al., "Fast unfolding of communities in large
networks", 2008) runs on CSR arrays. Each level is ``(indptr, indices,
weights, loops)``: a symmetric weighted adjacency without self entries
plus one loop weight per node, counting each intra-community edge once.
Level 0 is the graph's own CSR with unit weights. Every weight, degree
and community total is an integer-valued float below 2^53, so all sums
are exact in any order and the partition depends only on the seed.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["detect_communities", "modularity"]

MAX_SWEEPS = 100   # local-moving sweeps per level
MIN_GAIN = 1e-12   # a move must beat the best gain so far by more than this


def modularity(g: Graph, labels: np.ndarray) -> float:
    """Modularity Q of a partition: sum over communities of
    m_c / m - (D_c / 2m)^2, with m_c the intra-community edge count and
    D_c the total degree. Labels must cover every node with dense ids.
    """
    labels = np.asarray(labels)
    if len(labels) != g.n:
        raise ValueError("partition must assign a community to every node")
    if g.m == 0:
        raise ValueError("modularity undefined for an empty edge set")
    k = int(labels.max()) + 1 if len(labels) else 0
    if labels.min() < 0 or not np.bincount(labels, minlength=k).all():
        raise ValueError("community ids must be dense in [0, #communities)")
    ea = g.edge_array()
    intra = labels[ea[:, 0]] == labels[ea[:, 1]]
    m_c = np.bincount(labels[ea[:, 0]][intra], minlength=k).astype(np.float64)
    d_c = np.bincount(labels, weights=g.degrees(), minlength=k)
    m = float(g.m)
    return float((m_c / m - (d_c / (2.0 * m)) ** 2).sum())


def detect_communities(g: Graph, seed: int = 0) -> np.ndarray:
    """Louvain with a seeded node visiting order; returns dense labels.

    Deterministic for a fixed (graph, seed). Never returns a partition
    worse than the single community (Q = 0).
    """
    if g.m == 0:
        raise ValueError("community detection needs at least one edge")
    rng = np.random.default_rng(seed)
    level = (g.indptr, g.indices, np.ones(len(g.indices)), np.zeros(g.n))
    membership = np.arange(g.n, dtype=np.int64)   # original node -> current-level node
    m2 = 2.0 * g.m

    while True:
        comm, improved = _one_level(*level, m2, rng)
        dense = _dense_labels(comm)
        membership = dense[membership]
        if not improved:
            break
        level = _aggregate(*level, dense)
        if len(level[3]) <= 1:   # a single super-node is left
            break

    out = _dense_labels(membership)
    if modularity(g, out) < 0.0:
        out = np.zeros(g.n, dtype=np.int64)
    return out


def _dense_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel to [0, k) in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def _one_level(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    loops: np.ndarray,
    m2: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """Local node moving; returns (community per node, whether any move happened).

    Nodes are visited in a fresh ``rng.permutation`` per sweep. A node
    joins the neighbouring community with the largest gain, ties going
    to the smallest community id, and stays unless some gain exceeds
    MIN_GAIN. Each node's weight into each neighbouring community is
    kept up to date along the CSR row of every node that moves, so a
    visit costs its number of neighbouring communities, not its degree.
    Plain Python lists keep numpy scalars out of the loop.
    """
    n = len(loops)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    node_deg = (np.bincount(rows, weights=weights, minlength=n) + 2.0 * loops).tolist()
    ptr, nbr, wt = indptr.tolist(), indices.tolist(), weights.tolist()
    comm = list(range(n))
    comm_tot = node_deg.copy()
    # links[v][c]: weight from v into community c; every node starts alone
    links = [dict(zip(nbr[a:b], wt[a:b])) for a, b in zip(ptr, ptr[1:])]

    improved = False
    moved = True
    sweeps = 0
    while moved and sweeps < MAX_SWEEPS:
        moved = False
        sweeps += 1
        for v in rng.permutation(n).tolist():
            cur = comm[v]
            dv = node_deg[v]
            link = links[v]
            comm_tot[cur] -= dv
            base = link.get(cur, 0.0) - comm_tot[cur] * dv / m2
            # best_gain starts at 0, so a gain <= MIN_GAIN can never win;
            # cur itself scores exactly 0 and drops out here too
            gains = {c: gain for c, lc in link.items()
                     if (gain := lc - comm_tot[c] * dv / m2 - base) > MIN_GAIN}
            best_c, best_gain = cur, 0.0
            for c in sorted(gains):
                if gains[c] > best_gain + MIN_GAIN:
                    best_c, best_gain = c, gains[c]
            comm[v] = best_c
            comm_tot[best_c] += dv
            if best_c != cur:
                moved = True
                improved = True
                a, b = ptr[v], ptr[v + 1]
                for w, x in zip(nbr[a:b], wt[a:b]):
                    lw = links[w]
                    left = lw[cur] - x
                    if left:
                        lw[cur] = left
                    else:   # no neighbour left in cur: it is no candidate for w
                        del lw[cur]
                    lw[best_c] = lw.get(best_c, 0.0) + x
    return np.array(comm, dtype=np.int64), improved


def _aggregate(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    loops: np.ndarray,
    dense: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse communities into super-nodes; intra weight becomes loop weight."""
    n, k = len(loops), int(dense.max()) + 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    cu, cv = dense[rows], dense[indices]
    once = (cu == cv) & (rows < indices)   # each intra-community edge once
    new_loops = (np.bincount(dense, weights=loops, minlength=k)
                 + np.bincount(cu[once], weights=weights[once], minlength=k))
    cross = cu != cv
    key = cu[cross] * k + cv[cross]
    order = np.argsort(key)
    key, w = key[order], weights[cross][order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    new_w = np.add.reduceat(w, starts)
    key = key[starts]
    new_indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // k, minlength=k), out=new_indptr[1:])
    return new_indptr, key % k, new_w, new_loops
