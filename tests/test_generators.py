import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphsample.generators import (
    CHUNK,
    FF_DEFAULT_PF,
    GeneratorConfig,
    _Draws,
    calibrate_forest_fire,
    forest_fire,
    generate,
    mixed_model,
    small_world,
)
from graphsample.graph import largest_connected_component, validate
from graphsample.properties import path_length_stats

from oracles import floyd_warshall_oracle, forest_fire_oracle, mixed_model_oracle, small_world_oracle


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


def assert_same_as_oracle(fn, oracle, args, seed, primed):
    """Same CSR as the oracle, and the caller's Generator left in the same state."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if primed:   # one integers() call leaves a spare 32-bit half buffered
        rng.integers(5)
        twin.integers(5)
    got, want = fn(*args, rng), oracle(*args, twin)
    assert np.array_equal(got.indptr, want.indptr), args
    assert np.array_equal(got.indices, want.indices), args
    assert rng.bit_generator.state == twin.bit_generator.state, args


# p = 1 - pf: 2/3 keeps numpy's geometric search (p >= 1/3), one ulp above
# it and 0.7 take the inversion that _Draws hands to the Generator
FF_PFS = [FF_DEFAULT_PF, 0.6, math.nextafter(2 / 3, 0), 2 / 3, math.nextafter(2 / 3, 1), 0.7]


class TestForestFireOracle:
    @pytest.mark.parametrize("pf", FF_PFS)
    def test_matches_per_call_oracle(self, pf):
        assert_same_as_oracle(forest_fire, forest_fire_oracle, (120, pf), seed=3, primed=False)

    def test_desk_size_matches_oracle(self):
        assert_same_as_oracle(forest_fire, forest_fire_oracle, (2000, FF_DEFAULT_PF), seed=11,
                              primed=True)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 400), st.sampled_from(FF_PFS), st.integers(0, 2**32 - 1), st.booleans())
    def test_oracle_over_seeds(self, n, pf, seed, primed):
        assert_same_as_oracle(forest_fire, forest_fire_oracle, (n, pf), seed, primed)


@pytest.mark.parametrize("n,k,p", [(10, 2, 1.0), (200, 16, 0.1), (301, 4, 0.7), (9, 8, 0.9)])
@pytest.mark.parametrize("primed", [False, True])
def test_small_world_leaves_oracle_state(n, k, p, primed):
    assert_same_as_oracle(small_world, small_world_oracle, (n, k, p), seed=5, primed=primed)


class TestMixedModelOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(3, 400), st.sampled_from([0.0, 0.5, 1.0]),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_oracle_over_seeds(self, data, n, beta, seed, primed):
        # k small, or near n where the clique is most of the graph
        k = data.draw(st.integers(1, min(12, n - 1)) | st.integers(max(1, n - 4), n - 1))
        assert_same_as_oracle(mixed_model, mixed_model_oracle, (n, k, beta), seed, primed)

    def test_desk_size_matches_oracle(self):
        assert_same_as_oracle(mixed_model, mixed_model_oracle, (2000, 8, 0.5), seed=11, primed=True)


def twin_until_below(twin, p, limit):
    passed = 0
    while passed < limit and twin.random() >= p:
        passed += 1
    return passed


# 2**31 + 1 and 3 * 2**30 reject about half and a quarter of their first draws
BOUNDS = (st.sampled_from([1, 2, 3, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**40])
          | st.integers(1, 10**6))
# both sides of numpy's search/inversion switch at 1/3, and p = 1
PS = st.sampled_from([1e-3, 0.3, math.nextafter(1 / 3, 0), 1 / 3, math.nextafter(1 / 3, 1), 0.5, 0.9, 1.0])
SAMPLES = (st.integers(1, 300).flatmap(lambda pop: st.tuples(st.just(pop), st.integers(0, pop)))
           # numpy's Floyd branch up to pop // 50 at pop > 10000, its tail shuffle above
           | st.sampled_from([(20000, 400), (20000, 401), (20000, 1000), (9000, 4500)]))
OPS = st.one_of(
    st.tuples(st.just("double")),
    st.tuples(st.just("doubles"), st.integers(1, 3 * CHUNK)),
    st.tuples(st.just("below"), BOUNDS),
    st.tuples(st.just("burn"), PS),
    st.tuples(st.just("sample"), SAMPLES),
    st.tuples(st.just("until"), st.sampled_from([1e-4, 0.1, 0.9]), st.integers(0, 3 * CHUNK)),
    st.tuples(st.just("finish")),
)


class TestDraws:
    """Every _Draws method against the Generator call it decodes, on a twin Generator."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(OPS, max_size=25), st.integers(0, 2**32 - 1), st.booleans())
    @example(ops=[("below", k) for k in (1, 2, 2**31, 2**31 + 1, 2**32 - 1, 3, 2**32, 2**40)] * 5
             + [("burn", p) for p in (0.3, 1 / 3, 0.34, 1e-3, 0.5)] * 5, seed=1, primed=True)
    @example(ops=[("sample", (20000, 1000)), ("double",), ("sample", (20000, 400)), ("below", 3),
              ("sample", (20000, 401)), ("sample", (250, 100)), ("finish",), ("sample", (7, 7))],
             seed=2, primed=False)
    @example(ops=[("below", 5), ("doubles", CHUNK + 3), ("until", 1e-4, 3 * CHUNK), ("below", 9),
              ("until", 0.9, 5), ("burn", 0.5), ("doubles", 2 * CHUNK)], seed=3, primed=True)
    def test_matches_generator(self, ops, seed, primed):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        if primed:
            rng.integers(5)
            twin.integers(5)
        draws = _Draws(rng)
        for op, *args in ops:
            if op == "double":
                assert draws.double() == twin.random()
            elif op == "doubles":
                got = [draws.double() for _ in range(args[0])]
                assert got == twin.random(args[0]).tolist()
            elif op == "below":
                assert draws.below(args[0]) == int(twin.integers(args[0])), args
            elif op == "burn":
                assert draws.burn(args[0]) == int(twin.geometric(args[0])) - 1, args
            elif op == "sample":
                pop, size = args[0]
                assert draws.sample_sorted(pop, size) == sorted(twin.choice(pop, size, replace=False).tolist())
            elif op == "until":
                assert draws.until_below(*args) == twin_until_below(twin, *args), args
            else:
                draws.finish()
                assert rng.bit_generator.state == twin.bit_generator.state
        draws.finish()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_long_run_crosses_fetches(self):
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        draws = _Draws(rng)
        got = [draws.below(7) for _ in range(5 * CHUNK)]
        assert got == twin.integers(7, size=5 * CHUNK).tolist()
        draws.finish()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_rejects_other_bit_generators(self):
        with pytest.raises(TypeError, match="PCG64"):
            forest_fire(50, FF_DEFAULT_PF, np.random.Generator(np.random.MT19937(0)))


class TestCalibration:
    # values computed with the per-call generators, before the decoder
    def test_default_target_value(self):
        assert calibrate_forest_fire(n=400, seeds=(0,), iterations=6) == 0.50390625

    def test_inversion_branch_keeps_value(self, monkeypatch):
        # a high target walks pf past 2/3, where each burn count is a
        # geometric draw of the Generator itself
        calls = []

        class Spy(np.random.Generator):
            def geometric(self, p, size=None):
                calls.append(p)
                return super().geometric(p, size)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Spy(np.random.PCG64(seed)))
        assert calibrate_forest_fire(120.0, n=200, seeds=(0,), iterations=6) == 0.70078125
        assert calls and max(calls) < 1 / 3


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
