"""The six graph properties: three local with distributions, three global.

Local: degree, clustering coefficient, path length. Global: global
clustering (transitivity), degree assortativity, modularity of a
detected partition. ``clustering`` gives local and global clustering
from one triangle count. Path lengths walk the largest connected
component inside the graph; everything else uses the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .community import detect_communities, modularity
# induced_subgraph is unused here; perfbench/tracing.py rebinds it by this name
from .graph import Graph, induced_subgraph, largest_connected_component

__all__ = [
    "CC_BINS",
    "DISTRIBUTIONS",
    "Distribution",
    "PATH_MODES",
    "PropertyReport",
    "REPORT_VERSION",
    "SCALARS",
    "assortativity",
    "average_degree",
    "clustering",
    "degree_distribution",
    "path_length_stats",
    "property_report",
    "triangle_edge_counts",
]

CC_BINS = 100           # uniform bins on [0, 1] for the clustering distribution
EXACT_PATH_LIMIT = 5000  # LCC size up to which all-pairs BFS is used
BFS_BUDGET = 1 << 18     # uint64 words (2 MB) in one BFS frontier and in one neighbour gather
BFS_PAD = 1 << 13        # padding words that cost about as much as one more gather call
TRIANGLE_CHUNK = 1 << 16  # wedges checked in one pass of triangle_edge_counts
# Keys the originals cache: bump it with any change that alters a report value.
REPORT_VERSION = 1
# The report's names, in bundle order: one raw.csv row per scalar of each cell,
# one JSD row per distribution of each (dataset, method).
SCALARS = ("avg_degree", "avg_clustering", "avg_path_length",
           "global_clustering", "assortativity", "modularity")
DISTRIBUTIONS = ("degree", "clustering", "path_length")
PATH_MODES = ("auto", "exact", "sampled")


@dataclass(frozen=True)
class Distribution:
    """Normalized pmf over an ordered discrete or binned support."""

    support: np.ndarray
    pmf: np.ndarray

    def __post_init__(self):
        if len(self.support) != len(self.pmf):
            raise ValueError("support and pmf lengths differ")
        if len(self.pmf) == 0:
            raise ValueError("empty distribution")
        if np.any(self.pmf < 0):
            raise ValueError("negative pmf weight")
        total = float(self.pmf.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"pmf sums to {total}, not 1")
        if np.any(np.diff(self.support) <= 0):
            raise ValueError("support must be strictly increasing")
        self.support.flags.writeable = False
        self.pmf.flags.writeable = False

    def ecdf(self) -> np.ndarray:
        return np.cumsum(self.pmf)

    @classmethod
    def from_counts(cls, values: np.ndarray) -> "Distribution":
        """pmf over the distinct integer values observed."""
        values = np.asarray(values)
        if values.size == 0:
            raise ValueError("no observations")
        support, counts = np.unique(values, return_counts=True)
        return cls(support=support.astype(np.int64),
                   pmf=counts / counts.sum())

    @classmethod
    def from_histogram(cls, values: np.ndarray, bins: int, lo: float, hi: float) -> "Distribution":
        """pmf over uniform bins; support holds the bin centers."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ValueError("no observations")
        counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
        centers = (edges[:-1] + edges[1:]) / 2.0
        return cls(support=centers, pmf=counts / counts.sum())

    def to_dict(self) -> dict:
        return {"support": self.support.tolist(), "pmf": self.pmf.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Distribution":
        return cls(support=np.asarray(d["support"]), pmf=np.asarray(d["pmf"], dtype=np.float64))


@dataclass(frozen=True)
class PropertyReport:
    """The six scalar properties and the three local distributions.

    ``scalars`` is keyed by SCALARS and ``distributions`` by DISTRIBUTIONS,
    in that order, which is the order of the JSON that ``to_dict`` emits.
    """

    scalars: dict[str, float | None]
    distributions: dict[str, Distribution]
    flags: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scalars": self.scalars,
            "distributions": {k: d.to_dict() for k, d in self.distributions.items()},
            "flags": self.flags,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PropertyReport":
        s, dists = d["scalars"], d["distributions"]
        if set(s) != set(SCALARS) or set(dists) != set(DISTRIBUTIONS):
            raise ValueError(f"report keys {sorted(s)} and {sorted(dists)} are not "
                             f"{list(SCALARS)} and {list(DISTRIBUTIONS)}")
        return cls(scalars={k: s[k] for k in SCALARS},
                   distributions={k: Distribution.from_dict(dists[k]) for k in DISTRIBUTIONS},
                   flags=d.get("flags", {}))


# ---------------------------------------------------------------------------
# Degree


def average_degree(g: Graph) -> float:
    """2m / n."""
    if g.n == 0:
        raise ValueError("average degree undefined for an empty graph")
    return 2.0 * g.m / g.n


def degree_distribution(g: Graph) -> Distribution:
    """Fraction of nodes at each observed degree."""
    if g.n == 0:
        raise ValueError("degree distribution undefined for an empty graph")
    return Distribution.from_counts(g.degrees())


# ---------------------------------------------------------------------------
# Clustering


def triangle_edge_counts(g: Graph) -> np.ndarray:
    """Per node: number of edges among its neighbors (= triangles through it).

    Each edge is kept once, oriented from the lower to the higher node by
    (degree, id) rank (Schank & Wagner 2005; Latapy 2008), so a triangle
    a < b < c is found once, as the wedge a -> b -> c closed by a -> c.
    The wedges of a run of oriented edges a -> b are checked together, at
    most TRIANGLE_CHUNK of them (an edge with more goes alone), each by a
    searchsorted of a * n + c in the sorted keys of the oriented edges.
    """
    n, degs = g.n, g.degrees()
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(degs, kind="stable")] = np.arange(n)   # by degree, then id
    up = np.repeat(rank, degs) < rank[g.indices]
    # masking keeps each row sorted, so the kept entries are a CSR of the oriented edges
    head = g.indices[up]
    ptr = np.concatenate(([0], np.cumsum(up)))[g.indptr]
    out = np.diff(ptr)
    tail = np.repeat(np.arange(n), out)
    keys = np.append(tail * n + head, n * n)   # sorted; the last key tops every query
    edge = np.flatnonzero(out[head])           # the edges a -> b that open a wedge
    wedges = out[head[edge]]
    ends = np.cumsum(wedges)
    tri = np.zeros(n, dtype=np.int64)
    first = 0
    while first < len(edge):
        last = max(first + 1, int(np.searchsorted(ends, ends[first] - wedges[first] + TRIANGLE_CHUNK,
                                                  side="right")))
        a, b, cnt = tail[edge[first:last]], head[edge[first:last]], wedges[first:last]
        offs = np.cumsum(cnt) - cnt
        c = head[np.arange(offs[-1] + cnt[-1]) + np.repeat(ptr[b] - offs, cnt)]
        q = np.repeat(a * n, cnt) + c
        rows = keys[ptr[a[0]]:ptr[a[-1] + 1] + 1]   # the tails' rows and one key above them
        closed = rows[np.searchsorted(rows, q)] == q
        hits = np.add.reduceat(closed, offs, dtype=np.int64)   # triangles on each a -> b
        np.add.at(tri, a, hits)
        np.add.at(tri, b, hits)
        np.add.at(tri, c[closed], 1)
        first = last
    return tri


def clustering(g: Graph) -> tuple[np.ndarray, float]:
    """(local clustering per node, 0 below degree 2; global clustering) from one triangle count."""
    tri = triangle_edge_counts(g)
    degs = g.degrees().astype(np.float64)
    local = np.zeros(g.n, dtype=np.float64)
    mask = degs >= 2
    local[mask] = 2.0 * tri[mask] / (degs[mask] * (degs[mask] - 1.0))
    triplets = float((degs * (degs - 1.0) / 2.0).sum())
    # closed triplets (3 * triangles) over all triplets; 0 without a triplet
    return local, float(tri.sum()) / triplets if triplets else 0.0


# ---------------------------------------------------------------------------
# Path length


def _buckets(degs: np.ndarray, words: int) -> list[tuple[int, int]]:
    """Row ranges [a, b) that cover the ascending ``degs``.

    Padding a range's rows to its last (largest) degree adds entries of
    ``words`` words each; each range is as long as that keeps the padded
    entries below twice its real ones and the added words within BFS_PAD.
    A range of one degree adds none, so it always fits.
    """
    ends = np.append(np.flatnonzero(np.diff(degs)) + 1, len(degs))
    below = np.concatenate(([0], np.cumsum(degs)))
    cuts = [0]
    while cuts[-1] < len(degs):
        a = cuts[-1]
        b = ends[np.searchsorted(ends, a, side="right"):]
        padded, real = (b - a) * degs[b - 1], below[b] - below[a]
        fits = (padded < 2 * real) & ((padded - real) * words <= BFS_PAD)
        cuts.append(int(b[np.flatnonzero(fits)[-1]]))
    return list(zip(cuts[:-1], cuts[1:]))


def _hop_histogram(g: Graph, src: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """hist[h] = number of (source, target) pairs h >= 1 hops apart; hist[0] = 0.

    Bit-parallel multi-source BFS (Then et al., VLDB 2014) from ``src``
    over ``nodes``, the sorted ids of whole components of g with no
    isolated node: bit s of a node's row of uint64 words marks that
    source s has reached it, and one level ORs the frontier rows of every
    node's neighbours. ``nodes`` are relabelled by (degree, id) and cut
    into a few buckets (``_buckets``); a bucket's neighbour lists are
    padded to its largest degree with an all-zero row ``len(nodes)``, so
    one level is a gather and an OR over the padded axis per bucket.
    Sources run in blocks of as many words as keep the frontier within
    BFS_BUDGET words (at least one), and a bucket's rows in chunks of at
    most BFS_BUDGET gathered words (a single larger row goes alone).
    """
    degs = g.degrees()[nodes]
    order = np.argsort(degs, kind="stable")
    n, degs, rows = len(nodes), degs[order], nodes[order]
    starts = g.indptr[rows]
    pos = np.empty(g.n, dtype=np.int64)     # read only at ids in ``nodes``
    pos[rows] = np.arange(n)
    blocks = -(-len(src) // (64 * max(1, BFS_BUDGET // n)))   # the frontier within the budget
    words = -(-len(src) // (64 * blocks))                      # spread evenly over the blocks
    chunks = []
    for a, b in _buckets(degs, words):
        width = int(degs[b - 1])
        step = max(1, BFS_BUDGET // (width * words))
        for lo in range(a, b, step):
            hi = min(lo + step, b)
            at = starts[lo:hi] + np.arange(width)[:, None]   # (width, rows) positions in indices
            real = at < starts[lo:hi] + degs[lo:hi]
            chunks.append((lo, hi, np.where(real, pos[g.indices[np.where(real, at, 0)]], n)))
    buf = np.empty(max(idx.size for _, _, idx in chunks) * words, dtype=np.uint64)
    chunks = [(lo, hi, idx, buf[:idx.size * words].reshape(*idx.shape, words)) for lo, hi, idx in chunks]
    hist = [0]
    for first in range(0, len(src), 64 * words):
        block = pos[src[first:first + 64 * words]]
        bits = np.arange(len(block), dtype=np.uint64)
        frontier = np.zeros((n + 1, words), dtype=np.uint64)   # row n stays zero
        frontier[block, bits // 64] = np.uint64(1) << bits % 64
        unseen = ~frontier[:n]
        nxt = np.zeros_like(frontier)
        for level in range(1, n):
            for lo, hi, idx, got in chunks:
                frontier.take(idx, axis=0, out=got, mode="clip")
                np.bitwise_or.reduce(got, axis=0, out=nxt[lo:hi])
            reached = nxt[:n]
            reached &= unseen
            found = int(np.bitwise_count(reached).sum())
            if not found:
                break
            if level == len(hist):
                hist.append(0)
            hist[level] += found
            unseen ^= reached
            frontier, nxt = nxt, frontier
    return np.array(hist, dtype=np.int64)


def path_length_stats(
    g: Graph,
    mode: str = "auto",
    sources: int = 256,
    seed: int = 0,
) -> tuple[float, Distribution, dict[str, Any]]:
    """Mean shortest-path length and hop-count pmf over the LCC.

    ``exact`` runs BFS from every LCC node (all ordered pairs); ``sampled``
    draws uniform source nodes without replacement, which is unbiased for
    the ordered-pair mean. ``auto`` picks exact up to EXACT_PATH_LIMIT
    nodes. Both modes count hops with one bit-parallel multi-source BFS
    (``_hop_histogram``): 64 sources per uint64 word, frontiers expanded
    by padded neighbour gathers of at most BFS_BUDGET words each.
    Returns (mean, distribution, flags).
    """
    if g.n < 2 or g.m < 1:
        raise ValueError("path lengths need at least two nodes and one edge")
    if mode not in PATH_MODES:
        raise ValueError(f"unknown path mode {mode!r}")
    if sources < 1:
        raise ValueError(f"path sources must be >= 1, not {sources}")
    lcc = largest_connected_component(g)   # at least one edge, so no isolated node
    nl = len(lcc)
    if mode == "auto":
        mode = "exact" if nl <= EXACT_PATH_LIMIT else "sampled"
    if mode == "exact":
        src = lcc
    else:
        rng = np.random.default_rng(seed)
        src = lcc[np.sort(rng.choice(nl, size=min(sources, nl), replace=False))]
    hist = _hop_histogram(g, src, lcc)
    mean = float(hist @ np.arange(len(hist)) / hist.sum())
    support = np.flatnonzero(hist)
    dist = Distribution(support=support.astype(np.int64), pmf=hist[support] / hist.sum())
    flags = {
        "path_mode": mode,
        "path_sources": int(len(src)),
        "lcc_fraction": nl / g.n,
    }
    return mean, dist, flags


# ---------------------------------------------------------------------------
# Assortativity


def assortativity(g: Graph) -> float | None:
    """Pearson correlation of degrees across edge endpoints (both orientations).

    Returns None when every endpoint has the same degree (zero variance),
    e.g. on regular graphs, where the coefficient is undefined.
    """
    if g.m == 0:
        raise ValueError("assortativity undefined without edges")
    ea = g.edge_array()
    d = g.degrees().astype(np.float64)
    x = np.concatenate([d[ea[:, 0]], d[ea[:, 1]]])
    y = np.concatenate([d[ea[:, 1]], d[ea[:, 0]]])
    var = float(x.var())
    if var == 0.0:
        return None
    cov = float((x * y).mean() - x.mean() * y.mean())
    return cov / var


# ---------------------------------------------------------------------------
# Full report


def property_report(
    g: Graph,
    path_mode: str = "auto",
    path_sources: int = 256,
    seed: int = 0,
) -> PropertyReport:
    """Compute all six properties and three distributions for one graph."""
    if g.n == 0 or g.m == 0:
        raise ValueError("property report needs a non-empty graph with edges")
    mean_path, path_dist, flags = path_length_stats(
        g, mode=path_mode, sources=path_sources, seed=seed)
    cc, gcc = clustering(g)
    labels = detect_communities(g, seed=seed)
    r = assortativity(g)
    flags = dict(flags)
    flags.update({
        "assortativity_defined": r is not None,
        "gcc_has_triplets": bool((g.degrees() >= 2).any()),
        "community_count": int(labels.max()) + 1,
        "community_seed": seed,
    })
    scalars = (average_degree(g), float(cc.mean()), mean_path, gcc, r, modularity(g, labels))
    dists = (degree_distribution(g), Distribution.from_histogram(cc, CC_BINS, 0.0, 1.0), path_dist)
    return PropertyReport(scalars=dict(zip(SCALARS, scalars)),
                          distributions=dict(zip(DISTRIBUTIONS, dists)), flags=flags)
