import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsample.metrics import (
    RATIO_SHIFTS,
    align_supports,
    confidence_interval_95,
    jsd,
    rmse,
    scaling_ratio,
)
from graphsample.properties import Distribution

from oracles import jsd_oracle


def dist(d: dict) -> Distribution:
    support = np.array(sorted(d), dtype=np.float64)
    pmf = np.array([d[k] for k in sorted(d)], dtype=np.float64)
    return Distribution(support=support, pmf=pmf)


def random_dist(rng, size=None) -> Distribution:
    size = size or rng.integers(1, 8)
    support = np.sort(rng.choice(20, size=size, replace=False)).astype(np.float64)
    w = rng.random(size) + 1e-3
    return Distribution(support=support, pmf=w / w.sum())


class TestScalingRatio:
    def test_identity(self):
        assert scaling_ratio(5.74, 5.74) == pytest.approx(1.0)

    def test_halving(self):
        assert scaling_ratio(3.58, 7.16) == pytest.approx(0.5)

    def test_assortativity_shift(self):
        shift = RATIO_SHIFTS["assortativity"]
        assert shift == 1.0
        assert scaling_ratio(-0.05, -0.05, shift) == pytest.approx(1.0)
        assert scaling_ratio(0.0, -0.5, shift) == pytest.approx(2.0)

    def test_zero_denominator_marker(self):
        assert scaling_ratio(1.0, 0.0) is None
        assert scaling_ratio(1.0, -1.0, shift=1.0) is None

    def test_self_ratio_is_one(self):
        for x in (-0.7, 0.3, 12.0):
            assert scaling_ratio(x, x) == pytest.approx(1.0)
            assert scaling_ratio(x, x, shift=1.0) == pytest.approx(1.0)


class TestRmse:
    def test_exact_match_is_zero(self):
        assert rmse([5, 5, 5], 5) == 0.0

    def test_single_sample(self):
        assert rmse([3], 5) == pytest.approx(2.0)

    def test_formula(self):
        assert rmse([1, 2, 3, 4], 2.5) == pytest.approx(math.sqrt(1.25))

    def test_empty_error(self):
        with pytest.raises(ValueError):
            rmse([], 1.0)

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            vals = rng.normal(size=5)
            truth = float(rng.normal())
            r = rmse(vals, truth)
            assert r >= 0.0
            assert (r == 0.0) == bool(np.all(vals == truth))


class TestAlignSupports:
    def test_union_with_zero_padded_rows(self):
        support, pmfs = align_supports(dist({1: 0.5, 3: 0.5}), dist({2: 1.0}),
                                       dist({1: 0.25, 2: 0.75}))
        assert support.tolist() == [1.0, 2.0, 3.0]
        assert pmfs.tolist() == [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.25, 0.75, 0.0]]


class TestJsd:
    def test_identical_is_zero(self):
        p = dist({1: 0.5, 2: 0.5})
        assert jsd(p, p) == 0.0

    def test_disjoint_is_one(self):
        assert jsd(dist({1: 1.0}), dist({2: 1.0})) == pytest.approx(1.0)

    def test_vs_term_by_term_oracle(self):
        p = dist({1: 0.5, 2: 0.5})
        q = dist({1: 1.0})
        assert jsd(p, q) == pytest.approx(jsd_oracle({1: .5, 2: .5}, {1: 1.0}), abs=1e-12)

    def test_natural_log_base_option(self):
        p, q = dist({1: 1.0}), dist({2: 1.0})
        assert jsd(p, q, base=math.e) == pytest.approx(math.sqrt(math.log(2)))

    def test_symmetry_and_bounds_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p, q = random_dist(rng), random_dist(rng)
            d1, d2 = jsd(p, q), jsd(q, p)
            assert d1 == pytest.approx(d2, abs=1e-12)
            assert 0.0 <= d1 <= 1.0 + 1e-12
            pd = {float(s): float(w) for s, w in zip(p.support, p.pmf)}
            qd = {float(s): float(w) for s, w in zip(q.support, q.pmf)}
            assert d1 == pytest.approx(jsd_oracle(pd, qd), abs=1e-10)

    def test_triangle_inequality_sample(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p, q, r = (random_dist(rng) for _ in range(3))
            assert jsd(p, r) <= jsd(p, q) + jsd(q, r) + 1e-12

    def test_unnormalized_rejected(self):
        bad = Distribution(support=np.array([1.0]), pmf=np.array([1.0]))
        object.__setattr__(bad, "pmf", np.array([0.9]))
        with pytest.raises(ValueError):
            jsd(bad, dist({1: 1.0}))


class TestConfidenceInterval:
    def test_constant_values(self):
        ci = confidence_interval_95([1, 1, 1, 1])
        assert ci.mean == 1.0
        assert ci.half_width == 0.0

    def test_two_values(self):
        ci = confidence_interval_95([0, 2])
        assert ci.mean == pytest.approx(1.0)
        assert ci.half_width == pytest.approx(1.96)  # 1.96 * sqrt(2) / sqrt(2)

    def test_single_value_undefined_width(self):
        ci = confidence_interval_95([3.0])
        assert ci.mean == 3.0
        assert ci.half_width is None

    def test_empty_error(self):
        with pytest.raises(ValueError):
            confidence_interval_95([])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=20))
    def test_matches_direct_formula(self, values):
        ci = confidence_interval_95(values)
        arr = np.asarray(values)
        assert ci.mean == pytest.approx(arr.mean(), abs=1e-9)
        assert ci.half_width == pytest.approx(
            1.96 * arr.std(ddof=1) / math.sqrt(len(values)), abs=1e-9)
