"""Synthetic benchmark graphs: forest fire, small world, mixed model.

Each generator is deterministic for a fixed config (model parameters and
RNG seed) and produces a normalized simple Graph with exactly the target
node count.

The generators decode their draws from raw PCG64 words (``_Draws``)
instead of calling ``np.random.Generator`` once per draw. Each decoded
draw equals the Generator call it replaces under numpy 2.4.6, and the
caller's generator ends in the state those calls would have left. The
oracle tests and the fixed-seed pins fail if a numpy release changes
these algorithms.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _check_field_types, build_graph

__all__ = ["MODELS", "GeneratorConfig", "generate", "forest_fire", "small_world", "mixed_model"]

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
        _check_field_types(self)
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
    draws = _Draws(rng)
    below, burn, sample_sorted = draws.below, draws.burn, draws.sample_sorted
    adj: list[list[int]] = [[] for _ in range(n)]
    us: list[int] = []
    vs: list[int] = []
    for v in range(1, n):
        w = below(v)
        visited = {w}
        burned = [w]
        for x in burned:   # burned only grows at its end, so it is the fire's FIFO queue
            count = burn(1.0 - pf)   # geometric, shifted to {0, 1, ...}
            if count <= 0:
                continue
            fresh = [y for y in adj[x] if y not in visited]
            if count < len(fresh):
                chosen = [fresh[i] for i in sample_sorted(len(fresh), count)]
            else:
                chosen = fresh
            visited.update(chosen)
            burned += chosen
        for x in burned:
            us.append(v)
            vs.append(x)
            adj[x].append(v)
        adj[v] += burned
    draws.finish()
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
        # one random() per slot in slot order; a slot drawing >= p keeps its edge
        draws = _Draws(rng)
        slot = draws.until_below(p, h * n)
        while slot < h * n:
            j, i = divmod(slot, n)   # the slot of edge {i, (i + j + 1) % n}
            if degree[i] < n - 1:   # a saturated node could only gain a duplicate
                while True:
                    w = draws.below(n)
                    if w == i:
                        continue
                    a, b = (i, w) if i < w else (w, i)
                    if not present(a, b):
                        break
                lattice[slot] = 0
                rewired.add(a * n + b)
                degree[(i + j + 1) % n] -= 1
                degree[w] += 1
            slot += 1 + draws.until_below(p, h * n - slot - 1)
        draws.finish()
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

    ``pool`` is the edge list: both endpoints of each edge, in order. A
    uniform entry of it is a degree-proportional draw.
    """
    draws = _Draws(rng)
    double, below = draws.double, draws.below
    n0 = k + 1
    pool: list[int] = []
    for a in range(n0):
        for b in range(a + 1, n0):
            pool += (a, b)
    for v in range(n0, n):
        targets: list[int] = []
        attempts = 0
        while len(targets) < k and attempts < 20 * k:
            attempts += 1
            if double() < beta:
                cand = pool[below(len(pool))]
            else:
                cand = below(v)
            if cand not in targets:   # never v: below(v) < v, and pool holds older nodes only
                targets.append(cand)
        for t in targets:
            pool += (v, t)
    draws.finish()
    return build_graph(pool[0::2], pool[1::2], n=n)


def calibrate_forest_fire(
    target_avg_degree: float = 16.31,
    n: int = 10000,
    seeds: tuple[int, ...] = (0, 1, 2),
    iterations: int = 14,
) -> float:
    """Bisect the forward-burn probability in (0.05, 0.75) against a target average degree.

    The measured degree rises with the probability; noise is tolerable
    because the bracket only narrows.
    """
    lo, hi = 0.05, 0.75
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        graphs = (forest_fire(n, mid, np.random.default_rng(s)) for s in seeds)
        if float(np.mean([2.0 * g.m / g.n for g in graphs])) < target_avg_degree:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# Raw words a _Draws buffer holds at most: about 160 kB of Python ints.
CHUNK = 4096
_U32 = 0xFFFFFFFF
_DOUBLE = 2.0 ** -53
_THIRD = 0.333333333333333333333333   # numpy's geometric: search at or above, inversion below


class _Draws:
    """``np.random.Generator`` draws decoded from raw PCG64 words.

    Each method returns what the Generator call in its docstring returns
    under numpy 2.4.6 and consumes the same words, so a sequence of them
    matches the same sequence of calls. The words come from
    ``random_raw`` in fetches that double up to CHUNK; ``finish`` hands
    back the unread ones and writes back the 32-bit half-word buffer
    (``has_uint32``/``uinteger``) that ``integers`` shares. A draw not
    decoded here runs on the Generator itself between two syncs.
    """

    def __init__(self, rng: np.random.Generator):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError("the generators decode PCG64 words; got "
                            f"{type(rng.bit_generator).__name__}")
        self.rng = rng
        self._words: list[int] = []   # unread words of the last fetch, next one last
        self._pop = self._words.pop
        self._raw = np.empty(0, dtype=np.uint64)   # the last fetch
        self._hits: tuple[float, list[int]] | None = None
        self._cum: tuple[float, list[float]] = (-1.0, [])
        self._fetch = 8   # words in the next fetch
        self._resume()

    def _resume(self) -> None:
        state = self.rng.bit_generator.state
        self._has_half, self._half = bool(state["has_uint32"]), state["uinteger"]

    def _refill(self) -> None:
        self._raw = self.rng.bit_generator.random_raw(self._fetch)
        self._fetch = min(2 * self._fetch, CHUNK)
        self._words.extend(self._raw[::-1].tolist())
        self._hits = None

    def _rewind(self) -> None:
        """Hand the unread words back; the next fetch starts small again."""
        if self._words:
            self.rng.bit_generator.advance(-len(self._words))   # also clears has_uint32
            self._words.clear()
        self._fetch = 8   # so a delegated draw every few words refetches little

    def finish(self) -> None:
        """Leave the bit generator where the Generator calls would have."""
        self._rewind()
        bitgen = self.rng.bit_generator
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
        bitgen.state = state

    def _delegate(self, method, *args, **kwargs):
        self.finish()
        out = method(*args, **kwargs)
        self._resume()
        return out

    def double(self) -> float:
        """``random()``: the top 53 bits of one word."""
        try:
            w = self._pop()
        except IndexError:
            self._refill()
            w = self._pop()
        return (w >> 11) * _DOUBLE

    def _u32(self) -> int:
        if self._has_half:   # numpy keeps the spent half in uinteger
            self._has_half = False
            return self._half
        try:
            w = self._pop()
        except IndexError:
            self._refill()
            w = self._pop()
        self._has_half, self._half = True, w >> 32
        return w & _U32

    def below(self, k: int) -> int:
        """``integers(k)``: Lemire's bounded draw on 32-bit halves."""
        if k == 1:
            return 0   # numpy draws nothing for a one-value range
        if k >= 1 << 32:
            return self._u32() if k == 1 << 32 else int(self._delegate(self.rng.integers, k))
        m = self._u32() * k
        if m & _U32 < k:
            floor = ((1 << 32) - k) % k
            while m & _U32 < floor:
                m = self._u32() * k
        return m >> 32

    def burn(self, p: float) -> int:
        """``geometric(p) - 1``: numpy's search, as a bisection of its running sums."""
        if not p >= _THIRD:   # inversion reads whole words, so the half word stays here
            self._rewind()
            return int(self.rng.geometric(p)) - 1
        if self._cum[0] != p:
            cum, prod, q = [p], p, 1.0 - p
            while True:   # numpy's loop: prod *= q; sum += prod, until the sum stops moving
                prod *= q
                if cum[-1] + prod == cum[-1]:
                    break
                cum.append(cum[-1] + prod)
            self._cum = (p, cum)
        return bisect_left(self._cum[1], self.double())

    def sample_sorted(self, pop: int, size: int) -> list[int]:
        """``sorted(choice(pop, size, replace=False))``: Floyd's draws, then the shuffle's."""
        if pop > 10000 and size > pop // 50:   # numpy shuffles the tail of arange(pop)
            return sorted(self._delegate(self.rng.choice, pop, size, replace=False).tolist())
        below = self.below
        chosen: set[int] = set()
        for j in range(pop - size, pop):
            x = below(j + 1)
            chosen.add(j if x in chosen else x)
        for i in range(size, 1, -1):   # the shuffle only reorders what gets sorted
            below(i)
        return sorted(chosen)

    def until_below(self, p: float, limit: int) -> int:
        """Draw ``random()`` until a value is below p, at most ``limit`` times.

        Returns how many draws were at least p; when that is under
        ``limit`` the draw below p has been consumed too. Runs of draws
        at least p are skipped by bisecting the fetch's hit positions.
        """
        words = self._words
        passed = 0
        while passed < limit:
            if not words:
                self._refill()
            if self._hits is None or self._hits[0] != p:
                self._hits = (p, np.flatnonzero((self._raw >> 11) * _DOUBLE < p).tolist())
            hits = self._hits[1]
            pos = len(self._raw) - len(words)
            k = bisect_left(hits, pos)
            run = min((hits[k] if k < len(hits) else len(self._raw)) - pos, limit - passed)
            del words[len(words) - run:]
            passed += run
            if words and passed < limit:
                words.pop()   # the hit
                return passed
        return passed
