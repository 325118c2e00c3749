"""Synthetic benchmark graphs: forest fire, small world, mixed model.

Each generator is deterministic for a fixed config (model parameters and
RNG seed) and produces a normalized simple Graph with exactly the target
node count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import Graph, _check_int_fields, build_graph

__all__ = ["MODELS", "GeneratorConfig", "generate", "forest_fire", "small_world", "mixed_model",
           "calibrate_parameter"]

# Forward-burn probability that lands forest-fire graphs near average
# degree 16.3 at n=10k (see scripts/calibrate_generators.py).
FF_DEFAULT_PF = 0.4887

MODELS = ("ff", "sw", "mm")


@dataclass(frozen=True)
class GeneratorConfig:
    """Model choice plus parameters; unused parameters are ignored."""

    model: str                 # "ff" | "sw" | "mm"
    nodes: int
    seed: int = 0
    ff_pf: float = FF_DEFAULT_PF     # forward-burn probability
    sw_k: int = 16                   # ring degree (even)
    sw_p: float = 0.1                # rewire probability
    mm_k: int = 8                    # edge endpoints per new node
    mm_beta: float = 0.5             # preferential-attachment fraction

    def validate(self) -> None:
        _check_int_fields(self)
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "ff":
            if not 0.0 < self.ff_pf < 1.0:
                raise ValueError("ff_pf must be in (0, 1)")
            if self.nodes < 3:
                raise ValueError("nodes must be >= 3")
        elif self.model == "sw":
            if self.sw_k < 2 or self.sw_k % 2 != 0:
                raise ValueError("sw_k must be even and >= 2")
            if not 0.0 <= self.sw_p <= 1.0:
                raise ValueError("sw_p must be in [0, 1]")
            if self.nodes < max(3, self.sw_k + 1):
                raise ValueError("nodes must be >= max(3, sw_k + 1)")
        else:
            if self.mm_k < 1:
                raise ValueError("mm_k must be >= 1")
            if not 0.0 <= self.mm_beta <= 1.0:
                raise ValueError("mm_beta must be in [0, 1]")
            if self.nodes < max(3, self.mm_k + 1):
                raise ValueError("nodes must be >= max(3, mm_k + 1)")


def generate(config: GeneratorConfig) -> Graph:
    """Generate the configured graph; deterministic for a fixed config."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    if config.model == "ff":
        return forest_fire(config.nodes, config.ff_pf, rng)
    if config.model == "sw":
        return small_world(config.nodes, config.sw_k, config.sw_p, rng)
    return mixed_model(config.nodes, config.mm_k, config.mm_beta, rng)


def forest_fire(n: int, pf: float, rng: np.random.Generator) -> Graph:
    """Forward-burning forest fire growth.

    Each new node picks a uniform ambassador among existing nodes and
    burns outward: at every burned node a geometric number of not yet
    visited neighbors (mean pf / (1 - pf)) catches fire. The new node
    links to every burned node, so the graph is connected by construction.
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


def small_world(n: int, k: int, p: float, rng: np.random.Generator) -> Graph:
    """Watts-Strogatz ring lattice with rewiring; edge count stays n*k/2 (needs n > k).

    The lattice stays implicit: slot ``(j - 1) * n + i`` holds edge
    {i, (i + j) % n} and is cleared when that edge is rewired; rewired
    edges are kept as keys ``a * n + b`` with a < b. No edge holds a
    Python object until it is rewired.
    """
    h = k // 2
    lattice = bytearray(b"\x01") * (h * n)
    rewired: set[int] = set()
    degree = [k] * n

    def present(a: int, b: int) -> bool:
        # a rewire can land on the pair of an already cleared slot, so a
        # lattice-shaped pair is also looked up among the rewired keys
        d = b - a
        if d <= h and lattice[(d - 1) * n + a]:
            return True
        if n - d <= h and lattice[(n - d - 1) * n + b]:
            return True
        return a * n + b in rewired

    if p > 0:
        for j in range(1, h + 1):
            for i in range(n):
                if rng.random() >= p:
                    continue
                if degree[i] >= n - 1:
                    continue  # saturated; rewiring could only duplicate
                while True:
                    w = int(rng.integers(n))
                    if w == i:
                        continue
                    a, b = (i, w) if i < w else (w, i)
                    if not present(a, b):
                        break
                lattice[(j - 1) * n + i] = 0
                rewired.add(a * n + b)
                degree[(i + j) % n] -= 1
                degree[w] += 1
    slots = np.flatnonzero(np.frombuffer(lattice, dtype=np.uint8))
    keys = np.fromiter(rewired, dtype=np.int64, count=len(rewired))
    u = np.concatenate([slots % n, keys // n])
    v = np.concatenate([(slots % n + slots // n + 1) % n, keys % n])
    del slots, keys    # not held through build_graph's own temporaries
    return build_graph(u, v, n=n)


def mixed_model(n: int, k: int, beta: float, rng: np.random.Generator) -> Graph:
    """Growth with mixed attachment.

    Starts from a (k+1)-clique; every new node draws k distinct endpoints,
    each preferential (degree-proportional) with probability beta and
    uniform over existing nodes otherwise. Failed draws are retried a
    bounded number of times, so the edge count can fall slightly short
    of k per node.
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


def calibrate_parameter(
    measure: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    iterations: int = 18,
) -> float:
    """Bisection for a parameter of a monotone-increasing measurement.

    ``measure(p)`` is typically "average degree of a small generated
    graph"; noise is tolerable because the bracket only narrows.
    """
    if lo >= hi:
        raise ValueError("need lo < hi")
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if measure(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def calibrate_forest_fire(
    target_avg_degree: float = 16.31,
    n: int = 10000,
    seeds: tuple[int, ...] = (0, 1, 2),
    iterations: int = 14,
) -> float:
    """Bisect the forward-burn probability against a target average degree."""

    def measure(pf: float) -> float:
        vals = []
        for s in seeds:
            g = forest_fire(n, pf, np.random.default_rng(s))
            vals.append(2.0 * g.m / g.n)
        return float(np.mean(vals))

    return calibrate_parameter(measure, target_avg_degree, 0.05, 0.75, iterations)
