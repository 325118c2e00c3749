"""Traversal-based node sampling: FS, XS, RD, LS, HJ.

Every sampler maps (graph, sampling fraction, seed) to a Sample of
exactly ceil(phi * n) nodes. Dead ends restart from a uniform draw over
the not-yet-sampled nodes, which guarantees exhaustion on disconnected
graphs. All tie-breaks prefer the smallest node id so fixed seeds give
bit-identical samples.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .graph import Graph, _check_field_types, _sorted_unique, induced_edges, subgraph

__all__ = [
    "Sample",
    "SamplerConfig",
    "Telemetry",
    "METHODS",
    "expansion_sample",
    "finalize",
    "frontier_sample",
    "hybrid_jump_sample",
    "list_sample",
    "node_budget",
    "rank_degree_sample",
    "replay_check",
    "sample",
    "sample_subgraph",
]

METHODS = ("fs", "xs", "rd", "ls", "hj")


@dataclass(frozen=True)
class SamplerConfig:
    method: str
    phi: float = 0.1
    seed: int = 0
    finalize_mode: str | None = None  # "induced" | "collected"; default: the method's own rule
    tag: str | None = None           # row label in reports; defaults to method
    record_steps: bool = True
    # FS
    fs_walkers: int = 10
    fs_stall_limit: int = 1000
    # XS
    xs_seed_rule: str = "uniform"    # "uniform" | "max_degree"
    # LS
    ls_rule: str = "uniform"         # "uniform" | "max_degree"
    # RD
    rd_seeds: int = 10
    rd_rho: float = 0.1
    # HJ
    hj_alpha: float | None = None    # default: min(1, 1 / estimated avg degree)
    hj_probes: int = 1000
    hj_bfs_depth: int = 2
    hj_stall_limit: int = 1000

    def __post_init__(self):
        # each method's defining edge rule: FS, RD and HJ collect; XS and LS are induced
        if self.finalize_mode is None:
            object.__setattr__(self, "finalize_mode",
                               "induced" if self.method in ("xs", "ls") else "collected")

    @property
    def label(self) -> str:
        return self.tag or self.method

    def validate(self) -> None:
        """The checks that need no graph; ``sample`` bounds rd_seeds, and FS its walkers, by the graph."""
        _check_field_types(self)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.finalize_mode not in ("induced", "collected"):
            raise ValueError(f"unknown finalize mode {self.finalize_mode!r}")
        for f in dataclasses.fields(self):   # the method's own int fields are all counts
            if f.type == "int" and f.name.startswith(f"{self.method}_") and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")
        if self.method == "xs" and self.xs_seed_rule not in ("uniform", "max_degree"):
            raise ValueError(f"unknown xs_seed_rule {self.xs_seed_rule!r}")
        if self.method == "ls" and self.ls_rule not in ("uniform", "max_degree"):
            raise ValueError(f"unknown ls_rule {self.ls_rule!r}")
        if self.method == "rd":
            if not 0.0 < self.rd_rho <= 1.0:
                raise ValueError("rd_rho must be in (0, 1]")
        if self.method == "hj":
            if self.hj_alpha is not None and not 0.0 <= self.hj_alpha <= 1.0:
                raise ValueError("hj_alpha must be in [0, 1]")


@dataclass
class Telemetry:
    """Per-run counters plus an optional replayable step log.

    Event kinds: ("seed", v) walker placed without sampling, ("visit", v)
    node sampled without an edge, ("edge", u, v) sampled traversal edge,
    ("jump", u, v) teleport within the BFS jump list.
    """

    steps: int = 0
    restarts: int = 0
    teleports: int = 0
    jumps: int = 0
    trims: int = 0
    params: dict = field(default_factory=dict)
    visit_order: list[int] = field(default_factory=list)
    events: list[tuple] = field(default_factory=list)


@dataclass
class Sample:
    """Sampled node set and edge set in the host graph's id space."""

    nodes: np.ndarray            # sorted unique node ids
    edges: np.ndarray            # (k, 2) rows with u < v, lexsorted; a raw sample's steps' pairs
    method: str
    phi: float
    seed: int
    mode: str
    telemetry: Telemetry

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def sidecar(self, cfg: SamplerConfig) -> dict:
        """JSON-ready summary written next to a sample's edge list."""
        t = self.telemetry
        return {
            "method": self.method,
            "phi": self.phi,
            "seed": self.seed,
            "mode": self.mode,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "telemetry": {
                "steps": t.steps,
                "restarts": t.restarts,
                "teleports": t.teleports,
                "jumps": t.jumps,
                "trims": t.trims,
                "params": t.params,
            },
            "config": dataclasses.asdict(cfg),
        }


def node_budget(phi: float, n: int) -> int:
    """ceil(phi * n), guarded against float noise like 0.1 * 20000 -> 2001."""
    if not 0.0 < phi <= 1.0:
        raise ValueError("phi must be in (0, 1]")
    x = phi * n
    if x < 1.0 - 1e-9:
        raise ValueError("phi * n must be at least 1")
    return min(_ceil_count(x), n)


def _ceil_count(x: float) -> int:
    """ceil(x), except that x within float noise of an integer rounds to it."""
    nearest = round(x)
    if abs(x - nearest) < 1e-9 * max(1.0, abs(x)):
        return int(nearest)
    return int(math.ceil(x))


class _Run:
    """Mutable sampling state shared by all methods: validates the config,
    owns the RNG, and turns the finished run into a finalized Sample."""

    def __init__(self, g: Graph, cfg: SamplerConfig):
        cfg.validate()
        if cfg.method == "rd" and cfg.rd_seeds > g.n:
            raise ValueError("rd_seeds must be in [1, n]")
        self.g = g
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.degs = g.degrees()
        self.budget = node_budget(cfg.phi, g.n)
        self.sampled = np.zeros(g.n, dtype=bool)
        self.tel = Telemetry(params={   # the config fields of this method
            f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
            if f.name.startswith(f"{cfg.method}_")})
        self.us: list[int] = []     # collected edges as two endpoint lists
        self.vs: list[int] = []

    def full(self) -> bool:
        return len(self.tel.visit_order) >= self.budget

    def visit(self, v: int) -> bool:
        if self.sampled[v]:
            return False
        self.sampled[v] = True
        self.tel.visit_order.append(int(v))
        return True

    def start(self, v: int) -> None:
        """Sample v without an edge."""
        self.visit(v)
        self.log("visit", v)

    def edge(self, u: int, v: int) -> bool:
        """Sample v through the edge (u, v) and collect it; True if v is new."""
        new = self.visit(v)
        self.us.append(int(u))
        self.vs.append(int(v))
        self.log("edge", u, v)
        return new

    def log(self, *event) -> None:
        if self.cfg.record_steps:
            self.tel.events.append(event)

    def uniform_unsampled(self, positive_degree: bool = False) -> int:
        mask = ~self.sampled
        if positive_degree:
            with_deg = mask & (self.degs > 0)
            if with_deg.any():
                mask = with_deg
        pool = np.flatnonzero(mask)
        return int(pool[self.rng.integers(len(pool))])

    def restart(self, positive_degree: bool = False) -> int:
        """Sample a uniform unsampled node after a dead end and return it."""
        u = self.uniform_unsampled(positive_degree)
        self.start(u)
        self.tel.restarts += 1
        return u

    def finish(self) -> Sample:
        """Finalize the run with its collected edges."""
        raw = Sample(nodes=np.array(self.tel.visit_order, dtype=np.int64),
                     edges=np.column_stack([np.array(self.us, dtype=np.int64),
                                            np.array(self.vs, dtype=np.int64)]),
                     method=self.cfg.method, phi=self.cfg.phi, seed=self.cfg.seed,
                     mode="raw", telemetry=self.tel)
        return finalize(self.g, raw, self.cfg.finalize_mode)


def finalize(g: Graph, raw: Sample, mode: str) -> Sample:
    """Trim overshoot back to the budget and fix the edge set.

    A raw sample's edges are its steps' pairs: unordered and possibly
    repeated. ``collected`` keeps the pairs inside the node set, once each
    as a lexsorted u < v row; ``induced`` takes every g-edge internal to
    the node set. Overshoot (batch methods can exceed the budget on their
    last step) is trimmed from the most recently visited nodes.
    """
    if mode not in ("induced", "collected"):
        raise ValueError(f"unknown finalize mode {mode!r}")
    budget = node_budget(raw.phi, g.n)
    order = raw.telemetry.visit_order
    kept = order[:budget]
    raw.telemetry.trims = len(order) - len(kept)
    nodes = np.array(sorted(kept), dtype=np.int64)
    if mode == "induced":
        edges = induced_edges(g, nodes)
    else:
        mask = np.zeros(g.n, dtype=bool)
        mask[nodes] = True
        pairs = raw.edges[mask[raw.edges[:, 0]] & mask[raw.edges[:, 1]]]
        key = _sorted_unique(pairs.min(axis=1) * g.n + pairs.max(axis=1))
        edges = np.column_stack([key // g.n, key % g.n])
    return Sample(nodes=nodes, edges=edges, method=raw.method, phi=raw.phi,
                  seed=raw.seed, mode=mode, telemetry=raw.telemetry)


# ---------------------------------------------------------------------------
# Frontier sampling


def _walker_draw(wdeg: list[float], rng: np.random.Generator) -> int:
    """What ``rng.choice(len(wdeg), p=wdeg / sum(wdeg))`` draws, minus its argument
    checks: the same index and rng state for integer-valued weights below 2**53."""
    total = sum(wdeg)
    cdf = list(accumulate([w / total for w in wdeg]))
    return bisect_right(cdf, rng.random(), key=lambda c: c / cdf[-1])


def frontier_sample(g: Graph, cfg: SamplerConfig) -> Sample:
    """m-dimensional dependent random walk.

    Walkers start on distinct uniform seeds. Each step picks the walker
    at node v with probability d_v / sum of walker degrees, samples a
    uniform incident edge (v, w), collects it, and moves that walker to
    w. Node sampling stops at the budget. If no new node appears for
    ``fs_stall_limit`` steps (possible on disconnected graphs), one
    walker teleports to a uniform unsampled node of positive degree. Once
    only isolated nodes are left unsampled, each further stalled step
    samples one of them instead, so walkers only ever stand on nodes with
    edges. The walker draw is one ``rng.random()`` per step against the
    normalized cumulative walker degrees (``_walker_draw``), not ``Generator.choice``.
    """
    run = _Run(g, cfg)
    rng, degs = run.rng, run.degs

    # walkers live on edges, so isolated nodes are never eligible seeds
    eligible = np.flatnonzero(degs > 0)
    if len(eligible) < cfg.fs_walkers:
        raise ValueError("fewer positive-degree nodes than walkers")
    walkers = eligible[rng.choice(len(eligible), size=cfg.fs_walkers, replace=False)].astype(np.int64)
    for v in walkers:
        run.log("seed", int(v))

    wdeg = degs[walkers].astype(np.float64).tolist()
    stall = 0
    while not run.full():
        i = _walker_draw(wdeg, rng)
        v = int(walkers[i])
        w = int(g.neighbors(v)[rng.integers(degs[v])])
        new = run.visit(v) | run.edge(v, w)
        walkers[i] = w
        wdeg[i] = float(degs[w])
        run.tel.steps += 1
        stall = 0 if new else stall + 1
        if stall >= cfg.fs_stall_limit:
            u = run.uniform_unsampled(positive_degree=True)
            if degs[u] == 0:   # only isolated nodes are left: sample one, and stay stalled
                run.start(u)
                run.tel.restarts += 1
                continue
            k = int(rng.integers(len(walkers)))
            walkers[k] = u
            wdeg[k] = float(degs[u])
            run.tel.teleports += 1
            run.log("seed", u)
            stall = 0
    return run.finish()


# ---------------------------------------------------------------------------
# Expansion sampling (snowball variant)


def expansion_sample(g: Graph, cfg: SamplerConfig) -> Sample:
    """Greedy neighborhood-expansion sampling.

    Repeatedly adds the frontier node contributing the most nodes that
    are outside the sample and its current neighborhood, i.e. the greedy
    maximizer of the expansion factor |N(S)| / |S|. Ties break to the
    smallest id. An exhausted component triggers a restart from a uniform
    unsampled seed.

    ``score`` holds deg - ncov for frontier nodes and -1 for all others,
    viewed as rows of ``width`` nodes; ``top`` holds each row's maximum.
    The first maximum of ``top``, then of its row, is the top score with
    the smallest id. One ``np.argmax(score)`` per step picks the same
    nodes and is 20-40% faster up to n=100,000, but it scans all n
    scores: at n=300,000 it was 1.5-2.5x slower (SW 1.4-1.6 s -> 3.4-3.6 s,
    MM 2.3-2.6 s -> 3.8-4.1 s at phi=0.1 on a 2-core VM), and ten of the
    study's fifteen graphs have 190,000 nodes or more (docs/full_scale.md).
    """
    run = _Run(g, cfg)
    degs = run.degs

    width = math.isqrt(g.n) + 1
    covered = np.zeros(g.n, dtype=bool)     # membership in S union N(S)
    ncov = np.zeros(g.n, dtype=np.int64)    # covered neighbours
    score = np.full(-(-g.n // width) * width, -1, dtype=np.int64)   # padded to whole rows
    rows = score.reshape(-1, width)
    top = np.full(len(rows), -1, dtype=np.int64)                     # each row's maximum

    def absorb(v: int) -> None:
        """Move v into S and rescore the nodes whose score changed."""
        score[v] = -1
        nbrs = g.neighbors(v)
        ball = np.append(nbrs, v)
        fresh = ball[~covered[ball]]
        covered[fresh] = True
        _, touched = g.rows(fresh)
        np.add.at(ncov, touched, 1)
        rescore = np.concatenate([touched[score[touched] >= 0], nbrs[~run.sampled[nbrs]]])
        score[rescore] = degs[rescore] - ncov[rescore]
        r = _sorted_unique(np.append(rescore, v) // width)
        top[r] = rows[r].max(axis=1)

    # argmax returns the first maximum: the smallest id of top degree
    v0 = int(np.argmax(degs)) if cfg.xs_seed_rule == "max_degree" else run.uniform_unsampled()
    run.start(v0)
    absorb(v0)

    while not run.full():
        r = int(np.argmax(top))
        if top[r] < 0:
            absorb(run.restart())
            continue
        best = r * width + int(np.argmax(rows[r]))
        nb = g.neighbors(best)
        if not run.edge(int(nb[run.sampled[nb]][0]), best):   # from its smallest sampled neighbour
            raise RuntimeError(f"XS picked node {best}, which is already sampled")
        run.tel.steps += 1
        absorb(best)
    return run.finish()


# ---------------------------------------------------------------------------
# Rank degree


def rank_degree_sample(g: Graph, cfg: SamplerConfig) -> Sample:
    """Iterated degree-ranked expansion from a rotating seed set.

    Each round picks one seed uniformly from the current seed set, ranks
    its unsampled neighbors by degree (ties to the smaller id), samples
    the top ceil(rho * count) of them together with their edges to the
    seed, and promotes exactly those nodes to be the next seed set.
    """
    run = _Run(g, cfg)

    seed_set = [int(v) for v in run.rng.choice(g.n, size=cfg.rd_seeds, replace=False)]
    for v in seed_set:
        run.start(v)

    while not run.full():
        if not seed_set:
            seed_set = [run.restart()]
            continue
        i = int(run.rng.integers(len(seed_set)))
        u = seed_set[i]
        nb = g.neighbors(u)
        cand = nb[~run.sampled[nb]]
        if len(cand) == 0:
            seed_set.pop(i)
            continue
        order = np.lexsort((cand, -run.degs[cand]))   # degree desc, id asc
        k = max(1, _ceil_count(cfg.rd_rho * len(cand)))
        top = [int(cand[j]) for j in order[:k]]
        for w in top:
            run.edge(u, w)
        run.tel.steps += 1
        seed_set = top
    return run.finish()


# ---------------------------------------------------------------------------
# List sampling (uniform draw from the candidate list by default)


def list_sample(g: Graph, cfg: SamplerConfig) -> Sample:
    """Candidate-list sampling with a final induction step.

    A candidate list holds every neighbor of the sampled nodes. The
    ``uniform`` rule (default) draws the next node uniformly from the
    list, balancing depth against breadth of exploration; ``max_degree``
    instead takes the candidate with the highest degree in g (ties to
    the smaller id). The method's defining induction step, which sets the
    edge set to all g-edges among sampled nodes, is its default
    ``induced`` finalize mode; ``collected`` keeps the traversal edges.

    A popped candidate is never sampled yet: a node is queued at most once
    and leaves the list only by a pop, which samples it, and a restart,
    the only other sample after the start node, needs an empty list.

    ``queued`` marks every node that was ever listed or sampled. Each
    sampled node (the start node, a restart, a pop) is pushed right after
    it is sampled, and the push marks it first, so ``queued`` alone keeps
    sampled nodes off the list.
    """
    run = _Run(g, cfg)

    queued = np.zeros(g.n, dtype=bool)
    heap: list[tuple[int, int]] = []
    pool: list[int] = []
    by_degree = cfg.ls_rule == "max_degree"

    def push_neighbors(v: int) -> None:
        queued[v] = True
        for w in g.neighbors(v).tolist():
            if not queued[w]:
                queued[w] = True
                if by_degree:
                    heapq.heappush(heap, (-int(run.degs[w]), w))
                else:
                    pool.append(w)

    def pop_candidate() -> int:
        if by_degree:
            return heapq.heappop(heap)[1] if heap else -1
        if not pool:
            return -1
        i = int(run.rng.integers(len(pool)))
        pool[i], pool[-1] = pool[-1], pool[i]
        return pool.pop()

    v0 = run.uniform_unsampled()
    run.start(v0)
    push_neighbors(v0)

    while not run.full():
        v = pop_candidate()
        if v < 0:
            push_neighbors(run.restart())
            continue
        nb = g.neighbors(v)
        run.edge(int(nb[run.sampled[nb]][0]), v)   # every candidate neighbours a sampled node
        run.tel.steps += 1
        push_neighbors(v)
    return run.finish()


# ---------------------------------------------------------------------------
# Hybrid jump (Metropolis-Hastings walk with BFS jump list)


def _mh_propose(g: Graph, degs: np.ndarray, v: int, rng: np.random.Generator) -> tuple[int, bool]:
    """One Metropolis-Hastings step from v: (proposed neighbor, accepted)."""
    nb = g.neighbors(v)
    w = int(nb[rng.integers(len(nb))])
    accepted = bool(rng.random() < degs[v] / degs[w])
    return w, accepted


def _jump_candidates(g: Graph, v: int, depth: int) -> np.ndarray:
    """Sorted unique nodes within ``depth`` hops of v, excluding v itself.

    The first hop is v's own row, already sorted and free of v. Each
    further hop appends the ball's adjacency rows to the ball and dedupes
    the lot by one sort, so a jump costs O(edges of the ball), not O(n).
    """
    ball = np.concatenate([g.neighbors(v), [v]])
    for _ in range(depth - 1):
        ball = _sorted_unique(np.concatenate([ball, g.rows(ball)[1]]))
    return ball[ball != v]


def hybrid_jump_sample(g: Graph, cfg: SamplerConfig) -> Sample:
    """Metropolis-Hastings walk with uniform jumps into a BFS jump list.

    A uniform-degree probe first estimates the average degree d; the
    default jump probability is min(1, 1/d). Each step proposes a uniform
    neighbor w of the current node v and accepts with min(1, d_v / d_w);
    after every step the walker jumps, with the jump probability, to a
    uniform node among those within ``hj_bfs_depth`` hops.
    """
    run = _Run(g, cfg)
    rng, degs = run.rng, run.degs

    dhat = float(degs[rng.integers(0, g.n, size=min(cfg.hj_probes, g.n))].mean())
    alpha = cfg.hj_alpha if cfg.hj_alpha is not None else min(1.0, 1.0 / max(dhat, 1e-12))
    run.tel.params.update(hj_alpha=alpha, hj_avg_degree_estimate=dhat)

    v = int(rng.integers(g.n))
    run.start(v)
    stall = 0
    while not run.full():
        if degs[v] == 0:   # parked on an isolated node (possible via restart)
            v = run.restart(positive_degree=True)
            continue
        w, accepted = _mh_propose(g, degs, v, rng)
        new = False
        if accepted:
            new = run.edge(v, w)
            v = w
        run.tel.steps += 1
        if not run.full() and rng.random() < alpha:
            # never empty: v has a neighbour (the loop head leaves isolated nodes, a move follows an edge)
            cand = _jump_candidates(g, v, cfg.hj_bfs_depth)
            t = int(cand[rng.integers(len(cand))])
            run.tel.jumps += 1
            run.log("jump", v, t)
            new |= run.visit(t)
            v = t
        stall = 0 if new else stall + 1
        if stall >= cfg.hj_stall_limit:
            v = run.restart()
            stall = 0
    return run.finish()


# ---------------------------------------------------------------------------


_DISPATCH: dict[str, Callable[[Graph, SamplerConfig], Sample]] = {
    "fs": frontier_sample,
    "xs": expansion_sample,
    "rd": rank_degree_sample,
    "ls": list_sample,
    "hj": hybrid_jump_sample,
}


def sample(g: Graph, cfg: SamplerConfig) -> Sample:
    """Run the configured sampler; its ``_Run`` validates the config."""
    if cfg.method not in METHODS:
        raise ValueError(f"unknown method {cfg.method!r}")
    return _DISPATCH[cfg.method](g, cfg)


def sample_subgraph(g: Graph, s: Sample) -> Graph:
    """Build the sample graph G_s = (V_s, E_s) with dense re-indexing."""
    return subgraph(g, s.nodes, s.edges)


def replay_check(g: Graph, s: Sample) -> None:
    """Validate the step log against the host graph.

    Checks that every collected edge exists in g, that every step's
    source node was already part of the walker/seed state or the sample,
    and that jump targets lie within the configured BFS depth. Raises
    ValueError on the first violation.
    """
    tel = s.telemetry
    if not tel.events:
        raise ValueError("no step log recorded (record_steps was off?)")
    depth = int(tel.params.get("hj_bfs_depth", 2))
    known: set[int] = set()
    sampled: set[int] = set()
    logged_edges: set[tuple[int, int]] = set()
    for ev in tel.events:
        kind = ev[0]
        if kind == "seed":
            known.add(ev[1])
        elif kind == "visit":
            known.add(ev[1])
            sampled.add(ev[1])
        elif kind == "edge":
            _, u, v = ev
            if not g.has_edge(u, v):
                raise ValueError(f"logged edge ({u}, {v}) not in graph")
            if u not in known:
                raise ValueError(f"edge source {u} unknown at its step")
            known.update((u, v))
            sampled.update((u, v))
            logged_edges.add((min(u, v), max(u, v)))
        elif kind == "jump":
            _, u, v = ev
            if u not in known:
                raise ValueError(f"jump source {u} unknown at its step")
            if v not in _jump_candidates(g, u, depth):
                raise ValueError(f"jump target {v} beyond depth {depth} of {u}")
            known.add(v)
            sampled.add(v)
        else:
            raise ValueError(f"unknown event kind {kind!r}")
    node_set = set(int(x) for x in s.nodes)
    if not node_set <= sampled:
        raise ValueError("sample contains nodes never visited in the step log")
    if s.mode == "collected":
        edge_set = {(int(a), int(b)) for a, b in s.edges}
        if not edge_set <= logged_edges:
            raise ValueError("collected edges not covered by the step log")
