"""The six graph properties: three local with distributions, three global.

Local: degree, clustering coefficient, path length. Global: global
clustering (transitivity), degree assortativity, modularity of a
detected partition. ``clustering`` gives local and global clustering
from one triangle count. Path lengths are computed on the largest
connected component; everything else uses the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy import sparse

from .community import detect_communities, modularity
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
BFS_BUDGET = 16_000_000  # uint64 words in one BFS level's neighbour gather
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
    a < b < c is found once, as the path a -> b -> c closed by a -> c.
    """
    degs = g.degrees()
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.argsort(degs, kind="stable")] = np.arange(g.n)   # by degree, then id
    up = np.repeat(rank, degs) < rank[g.indices]
    # masking keeps each row sorted, so the kept entries are already CSR; hi is lo transposed
    lo, hi = (sparse.csr_matrix((np.ones(int(keep.sum()), dtype=np.int64), g.indices[keep],
                                 np.concatenate(([0], np.cumsum(keep)))[g.indptr]), shape=(g.n, g.n))
              for keep in (up, ~up))
    outer = (lo @ lo).multiply(lo)    # [a, c]: triangles with lowest a and highest c
    middle = (hi @ lo).multiply(lo)   # [b, c]: triangles with middle b and highest c
    return (np.asarray(outer.sum(axis=1)).ravel() + np.asarray(outer.sum(axis=0)).ravel()
            + np.asarray(middle.sum(axis=1)).ravel())


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


def _hop_histogram(g: Graph, src: np.ndarray) -> np.ndarray:
    """hist[h] = number of (source, target) pairs h >= 1 hops apart; hist[0] = 0.

    Bit-parallel multi-source BFS (Then et al., VLDB 2014): bit s of a
    node's row of uint64 words marks that source s has reached it, and one
    level ORs the frontier rows of every node's neighbours through a CSR
    gather. Sources run in blocks of words, and the node range in chunks,
    so that one gather holds at most BFS_BUDGET words (a single larger row
    goes alone). Every node needs a neighbour: reduceat repeats a row
    instead of reducing an empty one.
    """
    indptr, indices = g.indptr, g.indices
    words = min(-(-len(src) // 64), max(1, BFS_BUDGET // len(indices)))
    cap = BFS_BUDGET // words
    cuts = [0]
    while cuts[-1] < g.n:
        a = cuts[-1]
        b = int(np.searchsorted(indptr, indptr[a] + cap, side="right")) - 1
        cuts.append(max(b, a + 1))   # a row larger than cap goes alone
    hist = [0]
    for first in range(0, len(src), 64 * words):
        block = src[first:first + 64 * words]
        bits = np.arange(len(block), dtype=np.uint64)
        frontier = np.zeros((g.n, words), dtype=np.uint64)
        frontier[block, bits // 64] = np.uint64(1) << bits % 64
        unseen = ~frontier
        nxt = np.empty_like(frontier)
        for level in range(1, g.n):
            for a, b in zip(cuts[:-1], cuts[1:]):
                lo = indptr[a]
                nxt[a:b] = np.bitwise_or.reduceat(
                    frontier[indices[lo:indptr[b]]], indptr[a:b] - lo, axis=0)
            nxt &= unseen
            found = int(np.bitwise_count(nxt).sum())
            if not found:
                break
            if level == len(hist):
                hist.append(0)
            hist[level] += found
            unseen ^= nxt
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
    by CSR gathers of at most BFS_BUDGET words (128 MB) per level.
    Returns (mean, distribution, flags).
    """
    if g.n < 2 or g.m < 1:
        raise ValueError("path lengths need at least two nodes and one edge")
    if mode not in PATH_MODES:
        raise ValueError(f"unknown path mode {mode!r}")
    if sources < 1:
        raise ValueError(f"path sources must be >= 1, not {sources}")
    lcc = largest_connected_component(g)
    sub = induced_subgraph(g, lcc)
    nl = sub.n
    if nl < 2:
        raise ValueError("largest component has no edges")
    if mode == "auto":
        mode = "exact" if nl <= EXACT_PATH_LIMIT else "sampled"
    if mode == "exact":
        src = np.arange(nl)
    else:
        rng = np.random.default_rng(seed)
        src = np.sort(rng.choice(nl, size=min(sources, nl), replace=False))
    hist = _hop_histogram(sub, src)
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
