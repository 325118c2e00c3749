"""Independent brute-force oracles and small graph builders for tests.

Everything here deliberately avoids the library's own algorithms:
dense-matrix triple products, Floyd-Warshall, union-find, direct
summation of definitions. Slow on purpose, trusted by inspection.
``louvain_oracle`` is the earlier dict-of-dicts Louvain, kept verbatim
as the reference partition for the CSR implementation, and
``small_world_oracle`` the earlier set-of-tuples Watts-Strogatz
generator, kept as the reference for the implicit-lattice one.
``forest_fire_oracle`` and ``mixed_model_oracle`` are the earlier
generators that call ``np.random.Generator`` once per draw, kept as the
reference for the ones that decode raw PCG64 words.
``rank_degree_oracle``, ``frontier_oracle``, ``list_oracle`` and
``hybrid_jump_oracle`` are the RD, FS, LS and HJ samplers written from
their definitions, each making its sampler's Generator calls in the same
order, so ``check_against_oracle`` can assert the outputs equal. They
share one trim and edge-set step, ``_oracle_result``. The FS and HJ
oracles also return their per-step walker draws and proposals, from
which acceptance criterion 4 takes its statistics.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

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


def _noisy_ceil(x: float) -> int:
    """ceil(x), but x within 1e-9 (relative, at least absolute) of an integer is that integer."""
    if abs(x - round(x)) < 1e-9 * max(1.0, abs(x)):
        return round(x)
    return math.ceil(x)


def _budget(cfg, n: int) -> int:
    """ceil(phi * n) by ``_noisy_ceil``, at most n."""
    return min(_noisy_ceil(cfg.phi * n), n)


_COUNTERS = ("steps", "restarts", "teleports", "jumps", "trims")


def _neighbour_lists(g: Graph) -> list[list[int]]:
    """Each node's neighbours in ascending id order, from the edge list."""
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for a, b in g.edge_array().tolist():
        nbrs[a].add(b)
        nbrs[b].add(a)
    return [sorted(s) for s in nbrs]


def _uniform_unsampled(rng: np.random.Generator, nbrs: list[list[int]], sampled,
                       positive_degree: bool = False) -> int:
    """One ``rng.integers`` over the unsampled ids in ascending order; with
    ``positive_degree``, over those with a neighbour, if any are left."""
    pool = [v for v in range(len(nbrs)) if v not in sampled]
    if positive_degree and any(nbrs[v] for v in pool):
        pool = [v for v in pool if nbrs[v]]
    return pool[int(rng.integers(len(pool)))]


def _oracle_result(nbrs: list[list[int]], cfg, rng: np.random.Generator, order: list[int],
                   pairs: list[tuple[int, int]], events: list[tuple], **counters) -> dict:
    """What every sampler oracle returns, from its visit order and traversal pairs.

    The visits past ceil(phi * n) are trimmed from the end. ``induced``
    takes every edge among the kept nodes, ``collected`` the traversal
    pairs among them, each once as (min, max). Counters not given are 0.
    """
    kept = set(order[:_budget(cfg, len(nbrs))])
    if cfg.finalize_mode == "induced":
        edges = {(a, b) for a in kept for b in nbrs[a] if a < b and b in kept}
    else:
        edges = {(min(a, b), max(a, b)) for a, b in pairs if a in kept and b in kept}
    return {"nodes": sorted(kept), "edges": sorted(edges), "order": order, "events": events,
            **dict.fromkeys(_COUNTERS, 0), **counters, "trims": len(order) - len(kept),
            "state": rng.bit_generator.state}


def check_against_oracle(sampler, oracle, g: Graph, cfg) -> dict:
    """Run ``sampler`` and ``oracle`` on (g, cfg), assert that they agree, and return the oracle's result.

    Compared: the nodes, the edges, the visit order, the step log, the
    counters and the final ``bit_generator.state`` of the one Generator the
    sampler makes, captured by wrapping ``np.random.default_rng``.
    """
    made, real_rng = [], np.random.default_rng

    def recording_rng(*args, **kwargs):
        made.append(real_rng(*args, **kwargs))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", recording_rng)
        smp = sampler(g, cfg)
    assert len(made) == 1, f"{sampler.__name__} made {len(made)} Generators"
    t = smp.telemetry
    got = {"nodes": smp.nodes.tolist(), "edges": [tuple(e) for e in smp.edges.tolist()],
           "order": t.visit_order, "events": t.events,
           **{k: getattr(t, k) for k in _COUNTERS}, "state": made[0].bit_generator.state}
    want = oracle(g, cfg)
    differ = [k for k in got if got[k] != want[k]]
    assert not differ, f"{sampler.__name__} and {oracle.__name__} differ on {differ} for {cfg}"
    return want


def rank_degree_oracle(g: Graph, cfg) -> dict:
    """RD sample from the definition (Voudigari et al., ASONAM 2016), on sets and lists.

    ``rd_seeds`` distinct uniform seeds are sampled. Each round draws one
    node u of the seed set uniformly; if u has no unsampled neighbour it
    leaves the seed set, else its unsampled neighbours are ranked by
    degree, then smaller id, and the top max(1, ceil(rho * count)) are
    sampled through their edges to u and become the seed set. An empty
    seed set restarts from a uniform unsampled node. Returns
    ``_oracle_result``: the nodes, the edges of the finalize mode, the
    visit order, the step log, the counters and the final
    ``bit_generator.state``, all drawn by the sampler's Generator calls.
    """
    rng = np.random.default_rng(cfg.seed)
    nbrs = _neighbour_lists(g)
    budget = _budget(cfg, g.n)
    order: list[int] = []
    events: list[tuple] = []
    pairs: list[tuple[int, int]] = []
    steps = restarts = 0
    seed_set = rng.choice(g.n, cfg.rd_seeds, replace=False).tolist()
    for v in seed_set:
        order.append(v)
        events.append(("visit", v))
    while len(order) < budget:
        if not seed_set:
            v = _uniform_unsampled(rng, nbrs, order)
            order.append(v)
            events.append(("visit", v))
            restarts += 1
            seed_set = [v]
            continue
        i = int(rng.integers(len(seed_set)))
        u = seed_set[i]
        cand = [w for w in nbrs[u] if w not in order]
        if not cand:
            del seed_set[i]
            continue
        top = sorted(cand, key=lambda w: (-len(nbrs[w]), w))[:max(1, _noisy_ceil(cfg.rd_rho * len(cand)))]
        for w in top:
            order.append(w)
            events.append(("edge", u, w))
            pairs.append((u, w))
        steps += 1
        seed_set = top
    return _oracle_result(nbrs, cfg, rng, order, pairs, events, steps=steps, restarts=restarts)


def frontier_oracle(g: Graph, cfg) -> dict:
    """FS sample from the definition (Ribeiro and Towsley, IMC 2010), on sets and lists.

    ``fs_walkers`` walkers stand on distinct uniform nodes of positive
    degree, not yet sampled. Each step draws a walker with probability
    proportional to its node's degree (``Generator.choice`` with ``p``),
    samples its node v and a uniform neighbour w through the edge (v, w),
    and moves the walker to w. After ``fs_stall_limit`` steps in a row
    without a new node, a uniform unsampled node of positive degree
    replaces a uniform walker; once every unsampled node is isolated, one
    of them is sampled instead and the stall goes on. Returns
    ``_oracle_result`` plus ``walker_draws``: each step's walker degrees
    and the index drawn.
    """
    rng = np.random.default_rng(cfg.seed)
    nbrs = _neighbour_lists(g)
    budget = _budget(cfg, g.n)
    eligible = [v for v in range(g.n) if nbrs[v]]
    if len(eligible) < cfg.fs_walkers:
        raise ValueError("fewer positive-degree nodes than walkers")
    walkers = [eligible[i] for i in rng.choice(len(eligible), cfg.fs_walkers, replace=False)]
    events: list[tuple] = [("seed", v) for v in walkers]
    order: list[int] = []
    sampled: set[int] = set()
    pairs: list[tuple[int, int]] = []
    draws: list[tuple[list[int], int]] = []
    steps = restarts = teleports = stall = 0
    while len(order) < budget:
        wdeg = [len(nbrs[v]) for v in walkers]
        i = int(rng.choice(len(walkers), p=np.array(wdeg) / sum(wdeg)))
        draws.append((wdeg, i))
        v = walkers[i]
        w = nbrs[v][int(rng.integers(len(nbrs[v])))]
        new = False
        for x in (v, w):
            if x not in sampled:
                order.append(x)
                sampled.add(x)
                new = True
        pairs.append((v, w))
        events.append(("edge", v, w))
        walkers[i] = w
        steps += 1
        stall = 0 if new else stall + 1
        if stall >= cfg.fs_stall_limit:
            u = _uniform_unsampled(rng, nbrs, sampled, positive_degree=True)
            if not nbrs[u]:
                order.append(u)
                sampled.add(u)
                events.append(("visit", u))
                restarts += 1
                continue
            walkers[int(rng.integers(len(walkers)))] = u
            events.append(("seed", u))
            teleports += 1
            stall = 0
    return _oracle_result(nbrs, cfg, rng, order, pairs, events, steps=steps, restarts=restarts,
                          teleports=teleports) | {"walker_draws": draws}


def list_oracle(g: Graph, cfg) -> dict:
    """LS sample from the definition, on sets and lists.

    The walk starts at a uniform node. The candidate list holds each
    unsampled neighbour of the sampled nodes once, appended as found
    (each newly sampled node's neighbours in ascending id order). Each
    step takes one candidate: under ``uniform`` a uniform entry, swapped
    with the last entry and popped; under ``max_degree`` the one of
    largest degree, then smallest id. It is sampled through the edge from
    its smallest sampled neighbour. An empty list restarts from a uniform
    unsampled node. Returns ``_oracle_result``.
    """
    rng = np.random.default_rng(cfg.seed)
    nbrs = _neighbour_lists(g)
    budget = _budget(cfg, g.n)
    order: list[int] = []
    sampled: set[int] = set()
    cand: list[int] = []
    events: list[tuple] = []
    pairs: list[tuple[int, int]] = []
    steps = restarts = 0

    def take(v: int) -> None:
        order.append(v)
        sampled.add(v)
        cand.extend(w for w in nbrs[v] if w not in sampled and w not in cand)

    v = _uniform_unsampled(rng, nbrs, sampled)
    events.append(("visit", v))
    take(v)
    while len(order) < budget:
        if not cand:
            v = _uniform_unsampled(rng, nbrs, sampled)
            events.append(("visit", v))
            restarts += 1
            take(v)
            continue
        if cfg.ls_rule == "max_degree":
            v = min(cand, key=lambda w: (-len(nbrs[w]), w))
            cand.remove(v)
        else:
            i = int(rng.integers(len(cand)))
            cand[i], cand[-1] = cand[-1], cand[i]
            v = cand.pop()
        u = min(w for w in nbrs[v] if w in sampled)
        pairs.append((u, v))
        events.append(("edge", u, v))
        steps += 1
        take(v)
    return _oracle_result(nbrs, cfg, rng, order, pairs, events, steps=steps, restarts=restarts)


def hybrid_jump_oracle(g: Graph, cfg) -> dict:
    """HJ sample from the definition, on sets and lists.

    The mean degree of ``hj_probes`` uniform draws (at most n, with
    replacement) estimates the average degree d, and the jump probability
    is ``hj_alpha``, or else min(1, 1/d). The walk starts at a uniform
    node. Each step proposes a uniform neighbour w of the current node v
    and accepts it with probability min(1, d_v / d_w), sampling w through
    (v, w) and moving there. Then, unless the budget is met, the walk
    jumps with the jump probability to a uniform node within
    ``hj_bfs_depth`` hops of v, other than v, and samples it. After
    ``hj_stall_limit`` steps in a row without a new node it restarts from
    a uniform unsampled node; on an isolated node, from a uniform
    unsampled node of positive degree. Returns ``_oracle_result`` plus
    ``proposals``: each step's (d_v, d_w, accepted).
    """
    rng = np.random.default_rng(cfg.seed)
    nbrs = _neighbour_lists(g)
    deg = [len(s) for s in nbrs]
    budget = _budget(cfg, g.n)
    probes = rng.integers(0, g.n, size=min(cfg.hj_probes, g.n)).tolist()
    dhat = sum(deg[p] for p in probes) / len(probes)
    alpha = cfg.hj_alpha if cfg.hj_alpha is not None else min(1.0, 1.0 / max(dhat, 1e-12))
    v = int(rng.integers(g.n))
    order, sampled = [v], {v}
    events: list[tuple] = [("visit", v)]
    pairs: list[tuple[int, int]] = []
    proposals: list[tuple[int, int, bool]] = []
    steps = restarts = jumps = stall = 0

    def take(x: int) -> bool:
        if x in sampled:
            return False
        order.append(x)
        sampled.add(x)
        return True

    while len(order) < budget:
        if not nbrs[v]:
            v = _uniform_unsampled(rng, nbrs, sampled, positive_degree=True)
            take(v)
            events.append(("visit", v))
            restarts += 1
            continue
        w = nbrs[v][int(rng.integers(deg[v]))]
        accepted = bool(rng.random() < deg[v] / deg[w])
        proposals.append((deg[v], deg[w], accepted))
        new = False
        if accepted:
            new = take(w)
            pairs.append((v, w))
            events.append(("edge", v, w))
            v = w
        steps += 1
        if len(order) < budget and rng.random() < alpha:
            ball = {v}
            for _ in range(cfg.hj_bfs_depth):
                ball |= {x for y in ball for x in nbrs[y]}
            ball.discard(v)
            t = sorted(ball)[int(rng.integers(len(ball)))]
            jumps += 1
            events.append(("jump", v, t))
            new |= take(t)
            v = t
        stall = 0 if new else stall + 1
        if stall >= cfg.hj_stall_limit:
            v = _uniform_unsampled(rng, nbrs, sampled)
            take(v)
            events.append(("visit", v))
            restarts += 1
            stall = 0
    return _oracle_result(nbrs, cfg, rng, order, pairs, events, steps=steps, restarts=restarts,
                          jumps=jumps) | {"proposals": proposals}


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


def small_world_oracle(n: int, k: int, p: float, rng: np.random.Generator) -> Graph:
    """Watts-Strogatz with every edge a (min, max) tuple in one set.

    Same RNG calls in the same order as ``generators.small_world``: one
    ``rng.random()`` per lattice slot (when p > 0), then ``rng.integers(n)``
    until the new endpoint is neither the node itself nor a neighbor.
    """
    edges: set[tuple[int, int]] = set()
    degree = np.full(n, k, dtype=np.int64)
    for j in range(1, k // 2 + 1):
        for i in range(n):
            a, b = i, (i + j) % n
            edges.add((min(a, b), max(a, b)))
    if p > 0:
        for j in range(1, k // 2 + 1):
            for i in range(n):
                if rng.random() >= p:
                    continue
                old = (min(i, (i + j) % n), max(i, (i + j) % n))
                if degree[i] >= n - 1:
                    continue  # saturated; rewiring could only duplicate
                while True:
                    w = int(rng.integers(n))
                    if w == i:
                        continue
                    cand = (min(i, w), max(i, w))
                    if cand not in edges:
                        break
                other = old[0] if old[1] == i else old[1]
                edges.remove(old)
                edges.add(cand)
                degree[other] -= 1
                degree[w] += 1
    u, v = np.array(list(edges), dtype=np.int64).T
    return build_graph(u, v, n=n)


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


def forest_fire_oracle(n: int, pf: float, rng: np.random.Generator) -> Graph:
    """Forward-burning forest fire with one Generator call per draw.

    ``rng.integers`` for the ambassador, ``rng.geometric`` for each burn
    count and ``rng.choice(..., replace=False)`` for the burned subset.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    us: list[int] = []
    vs: list[int] = []
    for v in range(1, n):
        w = int(rng.integers(v))
        visited = {w}
        queue = deque([w])
        burned = [w]
        while queue:
            x = queue.popleft()
            # geometric(p) has support {1, 2, ...}; shift to {0, 1, ...}
            count = int(rng.geometric(1.0 - pf)) - 1
            if count <= 0:
                continue
            fresh = [y for y in adj[x] if y not in visited]
            if not fresh:
                continue
            if count < len(fresh):
                picked = rng.choice(len(fresh), size=count, replace=False)
                chosen = [fresh[i] for i in sorted(picked)]
            else:
                chosen = fresh
            for y in chosen:
                visited.add(y)
                queue.append(y)
                burned.append(y)
        for x in burned:
            us.append(v)
            vs.append(x)
            adj[v].append(x)
            adj[x].append(v)
    return build_graph(us, vs, n=n)


def mixed_model_oracle(n: int, k: int, beta: float, rng: np.random.Generator) -> Graph:
    """Mixed-attachment growth with one Generator call per draw.

    ``rng.random()`` picks preferential or uniform, then one
    ``rng.integers`` picks the endpoint.
    """
    n0 = k + 1
    us: list[int] = []
    vs: list[int] = []
    pool: list[int] = []   # one entry per edge endpoint: degree-proportional draws
    for a in range(n0):
        for b in range(a + 1, n0):
            us.append(a)
            vs.append(b)
            pool.append(a)
            pool.append(b)
    for v in range(n0, n):
        targets: list[int] = []
        seen = {v}
        attempts = 0
        want = min(k, v)
        while len(targets) < want and attempts < 20 * k:
            attempts += 1
            if rng.random() < beta:
                cand = pool[int(rng.integers(len(pool)))]
            else:
                cand = int(rng.integers(v))
            if cand in seen:
                continue
            seen.add(cand)
            targets.append(cand)
        for t in targets:
            us.append(v)
            vs.append(t)
            pool.append(v)
            pool.append(t)
    return build_graph(us, vs, n=n)
