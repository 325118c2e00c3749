"""Statistical check on the Metropolis-Hastings walk, with a fixed seed.

The walk's stationary distribution on a regular ring is verified
against the uniform one using 3-sigma bands over per-node visit
counts. The frontier-sampling walker choice and the MH acceptance rate
on a star are checked by acceptance criterion 4.
"""

import math

import numpy as np

from graphsample.samplers import _mh_propose

from oracles import cycle


def test_mh_walk_uniform_on_ring():
    # With equal degrees every proposal is accepted and the stationary
    # distribution is uniform. Thin the chain (odd stride, the even ring
    # is bipartite) and check per-node counts against a multinomial band.
    g = cycle(20)
    degs = g.degrees()
    rng = np.random.default_rng(123)
    v = 0
    counts = np.zeros(20, dtype=np.int64)
    thin = 121
    steps = 120_000
    for t in range(steps):
        w, accepted = _mh_propose(g, degs, v, rng)
        assert accepted   # equal degrees: min(1, 1) = 1
        v = w
        if t % thin == 0:
            counts[v] += 1
    n = counts.sum()
    p = 1.0 / 20.0
    band = 3.0 * math.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= band), counts
