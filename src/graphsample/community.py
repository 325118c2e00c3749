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
    k = int(labels.max()) + 1
    if (labels.dtype.kind not in "iu" or labels.min() < 0 or k > len(labels)
            or not np.bincount(labels, minlength=k).all()):
        raise ValueError("community ids must be dense integers in [0, #communities)")
    ea = g.edge_array()
    intra = labels[ea[:, 0]] == labels[ea[:, 1]]
    m_c = np.bincount(labels[ea[:, 0]][intra], minlength=k).astype(np.float64)
    d_c = np.bincount(labels, weights=g.degrees(), minlength=k)
    m = float(g.m)
    return float((m_c / m - (d_c / (2.0 * m)) ** 2).sum())


def detect_communities(g: Graph, seed: int = 0) -> np.ndarray:
    """Louvain with a seeded node visiting order; returns dense labels.

    Deterministic for a fixed (graph, seed). Never returns a partition
    worse than the single community (Q = 0). Levels number communities
    by first appearance and super-node ids rise with their first node,
    so the composed labels need no relabel; a level that moved no node
    returns ``range(n)`` (a move joins a neighbour's community).
    """
    if g.m == 0:
        raise ValueError("community detection needs at least one edge")
    rng = np.random.default_rng(seed)
    level = (g.indptr, g.indices, np.ones(len(g.indices)), np.zeros(g.n))
    membership = np.arange(g.n, dtype=np.int64)   # original node -> current-level node
    m2 = 2.0 * g.m

    while True:
        comm = _one_level(*level, m2, rng)
        if comm.max() + 1 == len(comm):   # every node alone: the level moved none
            break
        membership = comm[membership]
        level = _aggregate(*level, comm)

    if modularity(g, membership) < 0.0:
        membership = np.zeros(g.n, dtype=np.int64)
    return membership


def _one_level(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    loops: np.ndarray,
    m2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Local node moving; returns each node's community, numbered 0..k-1
    in order of first appearance.

    Nodes are visited in a fresh ``rng.permutation`` per sweep. A node
    moves only if some gain exceeds MIN_GAIN, to the community picked
    by an ascending-id chain that takes each gain beating the best so
    far by more than MIN_GAIN. No gain exceeds ``strength - lcur -
    base``: other ``lc <= strength - lcur``, ``comm_tot[c] >= 0`` and
    float subtraction is monotone. If one pass finds the top two gains
    ``g1 > g2 + MIN_GAIN``, the chain ends at g1: it beats any earlier
    best (at most g2) and no later gain (at most g2) beats it. Only a
    near tie runs the chain. A node's weight into each neighbouring
    community is kept up to date along the CSR row of every moved node,
    so a visit costs its number of neighbouring communities, not its
    degree. Plain Python lists keep numpy scalars out of the loop.
    """
    n = len(loops)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    strength = np.bincount(rows, weights=weights, minlength=n)   # link weight without loops
    node_deg, strength = (strength + 2.0 * loops).tolist(), strength.tolist()
    ptr, nbr, wt = indptr.tolist(), indices.tolist(), weights.tolist()
    comm = list(range(n))
    comm_tot = node_deg.copy()
    # links[v][c]: weight from v into community c; every node starts alone
    links = [dict(zip(nbr[a:b], wt[a:b])) for a, b in zip(ptr, ptr[1:])]

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
            base = (lcur := link.get(cur, 0.0)) - comm_tot[cur] * dv / m2
            if strength[v] - lcur - base <= MIN_GAIN:   # bounds every gain: v stays
                comm_tot[cur] += dv
                continue
            best_c, g1, g2 = cur, 0.0, 0.0   # cur scores exactly 0: never a candidate
            for c, lc in link.items():
                gain = lc - comm_tot[c] * dv / m2 - base
                if gain > g1:
                    best_c, g1, g2 = c, gain, g1
                elif gain > g2:
                    g2 = gain
            if g1 <= MIN_GAIN:
                best_c = cur
            elif g1 <= g2 + MIN_GAIN:   # near tie: the ascending-id chain decides
                best_c, best_gain = cur, 0.0
                for c, lc in sorted(link.items()):
                    if (gain := lc - comm_tot[c] * dv / m2 - base) > best_gain + MIN_GAIN:
                        best_c, best_gain = c, gain
            comm[v] = best_c
            comm_tot[best_c] += dv
            if best_c != cur:
                moved = True
                a, b = ptr[v], ptr[v + 1]
                for w, x in zip(nbr[a:b], wt[a:b]):
                    lw = links[w]
                    left = lw[cur] - x
                    if left:
                        lw[cur] = left
                    else:   # no neighbour left in cur: it is no candidate for w
                        del lw[cur]
                    lw[best_c] = lw.get(best_c, 0.0) + x
    dense: dict[int, int] = {}
    return np.array([dense.setdefault(c, len(dense)) for c in comm], dtype=np.int64)


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
    key, at = np.unique(cu[cross] * k + cv[cross], return_inverse=True)
    new_w = np.bincount(at, weights=weights[cross], minlength=len(key))
    return np.searchsorted(key, np.arange(k + 1) * k), key % k, new_w, new_loops
