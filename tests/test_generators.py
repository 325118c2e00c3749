import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsample.generators import (
    FF_DEFAULT_PF,
    GeneratorConfig,
    calibrate_parameter,
    forest_fire,
    generate,
    mixed_model,
    small_world,
)
from graphsample.graph import largest_connected_component, validate
from graphsample.properties import path_length_stats

from oracles import floyd_warshall_oracle, small_world_oracle


@pytest.mark.parametrize("model", ["ff", "sw", "mm"])
def test_determinism(model):
    cfg = GeneratorConfig(model=model, nodes=400, seed=9)
    a = generate(cfg)
    b = generate(cfg)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


@pytest.mark.parametrize("model,seed", [(m, s) for m in ("ff", "sw", "mm") for s in (0, 1)])
def test_outputs_are_valid_simple_graphs(model, seed):
    g = generate(GeneratorConfig(model=model, nodes=300, seed=seed))
    assert g.n == 300
    validate(g)


def assert_same_sw(n, k, p, seed):
    got = generate(GeneratorConfig(model="sw", nodes=n, sw_k=k, sw_p=p, seed=seed))
    want = small_world_oracle(n, k, p, np.random.default_rng(seed))
    assert np.array_equal(got.indptr, want.indptr), (n, k, p, seed)
    assert np.array_equal(got.indices, want.indices), (n, k, p, seed)


class TestSmallWorld:
    @pytest.mark.parametrize("n,k,p", [
        (3, 2, 0.5), (10, 2, 0.0), (10, 2, 1.0), (40, 6, 0.0), (40, 6, 0.3),
        (60, 8, 1.0), (200, 16, 0.1), (301, 4, 0.7), (500, 16, 1.0),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_set_of_tuples_oracle(self, n, k, p, seed):
        assert_same_sw(n, k, p, seed)

    @pytest.mark.parametrize("n,k,p", [(5, 4, 1.0), (9, 8, 0.9)])
    def test_saturated_rings_match_oracle(self, n, k, p):
        # nearly complete: rewires hit the saturation skip and retry often
        for seed in range(20):
            assert_same_sw(n, k, p, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(12, 2), (15, 4), (30, 8), (11, 10)]),
           st.sampled_from([0.05, 0.5, 1.0]))
    def test_oracle_over_seeds(self, seed, nk, p):
        assert_same_sw(*nk, p, seed)

    def test_edge_count_exact(self):
        for n, k, p in [(300, 16, 0.1), (1000, 8, 0.5), (50, 4, 1.0)]:
            g = generate(GeneratorConfig(model="sw", nodes=n, sw_k=k, sw_p=p, seed=2))
            assert g.m == n * k // 2

    def test_unrewired_ring_is_regular(self):
        g = generate(GeneratorConfig(model="sw", nodes=40, sw_k=6, sw_p=0.0, seed=0))
        assert set(g.degrees().tolist()) == {6}

    def test_ten_cycle_path_length(self):
        g = generate(GeneratorConfig(model="sw", nodes=10, sw_k=2, sw_p=0.0, seed=0))
        assert g.m == 10
        got = path_length_stats(g, mode="exact")[0]
        dist = floyd_warshall_oracle(g)
        mask = ~np.eye(10, dtype=bool)
        assert got == pytest.approx(dist[mask].mean(), abs=1e-12)
        assert got == pytest.approx(2.7777777777, abs=1e-6)


class TestForestFire:
    def test_connected_by_construction(self):
        for seed in range(3):
            g = forest_fire(500, FF_DEFAULT_PF, np.random.default_rng(seed))
            assert len(largest_connected_component(g)) == g.n

    def test_default_pf_hits_target_degree(self):
        # calibration target: average degree 16.31 at n=10k, within +-10%
        vals = []
        for seed in (0, 1):
            g = forest_fire(10000, FF_DEFAULT_PF, np.random.default_rng(seed))
            vals.append(2.0 * g.m / g.n)
        assert abs(np.mean(vals) - 16.31) <= 1.631

    def test_bisection_recovers_parameter(self):
        # calibrate against a cheap synthetic monotone curve
        got = calibrate_parameter(lambda p: p * p, target=0.25, lo=0.0, hi=1.0, iterations=30)
        assert got == pytest.approx(0.5, abs=1e-6)


class TestMixedModel:
    def test_edge_budget(self):
        g = mixed_model(1000, 8, 0.5, np.random.default_rng(4))
        target = 8 * (1000 - 9) + 36  # k per new node + seed clique
        assert abs(g.m - target) <= 0.1 * target

    def test_heavier_tail_than_small_world(self):
        mm_max, sw_max = [], []
        for seed in range(10):
            gm = generate(GeneratorConfig(model="mm", nodes=1000, seed=seed))
            gs = generate(GeneratorConfig(model="sw", nodes=1000, seed=seed))
            mm_max.append(gm.degrees().max())
            sw_max.append(gs.degrees().max())
        assert np.mean(mm_max) > np.mean(sw_max)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(model="zz", nodes=10),
        dict(model="ff", nodes=10, ff_pf=0.0),
        dict(model="ff", nodes=10, ff_pf=1.0),
        dict(model="ff", nodes=2),
        dict(model="sw", nodes=10, sw_k=3),
        dict(model="sw", nodes=10, sw_p=1.5),
        dict(model="sw", nodes=8, sw_k=16),
        dict(model="mm", nodes=10, mm_k=0),
        dict(model="mm", nodes=10, mm_beta=-0.1),
        dict(model="mm", nodes=4, mm_k=8),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            generate(GeneratorConfig(seed=0, **kwargs))
