import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsample.community import detect_communities, modularity
from graphsample import properties
from graphsample.generators import GeneratorConfig, generate
from graphsample.graph import build_graph, induced_subgraph
from graphsample.properties import (
    CC_BINS,
    Distribution,
    PropertyReport,
    assortativity,
    average_degree,
    clustering,
    degree_distribution,
    path_length_stats,
    property_report,
    triangle_edge_counts,
)

from oracles import (
    assortativity_oracle,
    average_path_length_oracle,
    complete_graph,
    cycle,
    degree_histogram_oracle,
    floyd_warshall_oracle,
    global_clustering_oracle,
    local_clustering_oracle,
    path_graph,
    random_graph,
    star,
    triangles_per_node_oracle,
)


class TestAverageDegree:
    def test_k3(self):
        assert average_degree(complete_graph(3)) == 2.0

    def test_formula_matches_counts(self):
        g = random_graph(40, 0.2, seed=0)
        assert average_degree(g) == pytest.approx(2 * g.m / g.n)

    def test_empty_graph_error(self):
        g = build_graph([], [], n=0)
        with pytest.raises(ValueError):
            average_degree(g)


class TestDegreeDistribution:
    def test_k3(self):
        d = degree_distribution(complete_graph(3))
        assert d.support.tolist() == [2]
        assert d.pmf.tolist() == [1.0]

    def test_star_s5(self):
        d = degree_distribution(star(5))
        assert d.support.tolist() == [1, 4]
        assert d.pmf.tolist() == [0.8, 0.2]

    def test_vs_histogram_oracle(self):
        g = random_graph(50, 0.1, seed=2)
        d = degree_distribution(g)
        expected = degree_histogram_oracle(g)
        assert {int(s): p for s, p in zip(d.support, d.pmf)} == pytest.approx(expected)

    def test_empty_graph_error(self):
        with pytest.raises(ValueError, match="degree distribution undefined for an empty graph"):
            degree_distribution(build_graph([], [], n=0))


class TestClustering:
    def test_k3_and_star(self):
        assert clustering(complete_graph(3))[0].tolist() == [1.0, 1.0, 1.0]
        assert clustering(star(8))[0].tolist() == [0.0] * 8
        tri = build_graph([0, 0, 1, 0], [1, 2, 2, 3])  # triangle + pendant on node 0
        assert clustering(tri)[0].tolist() == pytest.approx([1 / 3, 1.0, 1.0, 0.0])

    def test_triangle_counts_vs_dense_oracle(self):
        k8 = [(a, b) for a in range(8) for b in range(a + 1, 8)]
        hub = build_graph(*zip(*(k8 + [(7, leaf) for leaf in range(8, 16)])))  # K8 + star on node 7
        graphs = [random_graph(60, 0.15, seed=seed) for seed in range(5)] + [
            hub,
            build_graph([], [], n=6),                  # edgeless
            build_graph([0, 1, 2], [1, 2, 0], n=7),    # triangle + isolated nodes
        ]
        for g in graphs:
            assert np.array_equal(triangle_edge_counts(g), triangles_per_node_oracle(g))

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_triangle_counts_in_small_chunks(self, monkeypatch, chunk):
        # a hub joined to every node of cliques K3..K7, and the three models;
        # chunks this small split every run, and an edge that opens more
        # wedges than a chunk goes alone
        us, vs, base = [], [], 1
        for k in range(3, 8):
            clique = range(base, base + k)
            us += [a for a in clique for b in clique if a < b] + [0] * k
            vs += [b for a in clique for b in clique if a < b] + list(clique)
            base += k
        graphs = [build_graph(us, vs)] + [generate(GeneratorConfig(model=model, nodes=300))
                                          for model in ("ff", "sw", "mm")]
        monkeypatch.setattr(properties, "TRIANGLE_CHUNK", chunk)
        for g in graphs:
            assert np.array_equal(triangle_edge_counts(g), triangles_per_node_oracle(g))

    def test_local_values_vs_pairwise_oracle(self):
        g = random_graph(30, 0.2, seed=3)
        got = clustering(g)[0]
        expected = local_clustering_oracle(g)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_distribution_bins(self):
        d = property_report(random_graph(40, 0.3, seed=1)).distributions["clustering"]
        assert len(d.support) == CC_BINS
        assert d.pmf.sum() == pytest.approx(1.0, abs=1e-9)


class TestGlobalClustering:
    def test_k3_p3(self):
        assert clustering(complete_graph(3))[1] == 1.0
        assert clustering(path_graph(3))[1] == 0.0

    def test_no_triplets_is_zero(self):
        matching = build_graph([0, 2], [1, 3])
        assert clustering(matching)[1] == 0.0

    def test_vs_dense_oracle(self):
        for seed in range(4):
            g = random_graph(40, 0.15, seed=seed)
            assert clustering(g)[1] == pytest.approx(global_clustering_oracle(g), abs=1e-12)


class TestPathLength:
    def test_p3(self):
        assert path_length_stats(path_graph(3), mode="exact")[0] == pytest.approx(4 / 3)

    def test_ten_cycle_vs_floyd_warshall(self):
        g = cycle(10)
        fw = floyd_warshall_oracle(g)
        mask = ~np.eye(10, dtype=bool)
        assert path_length_stats(g, mode="exact")[0] == pytest.approx(fw[mask].mean(), abs=1e-9)

    def test_disconnected_uses_lcc(self):
        g = build_graph([0, 1, 2, 4], [1, 2, 3, 5])  # P4 plus an edge
        mean, dist, flags = path_length_stats(g, mode="exact")
        assert flags["lcc_fraction"] == pytest.approx(4 / 6)
        fw = floyd_warshall_oracle(induced_subgraph(g, [0, 1, 2, 3]))
        mask = ~np.eye(4, dtype=bool)
        assert mean == pytest.approx(fw[mask].mean())

    def test_sampled_converges(self):
        g = random_graph(800, 0.01, seed=6)
        exact = path_length_stats(g, mode="exact")[0]
        approx = path_length_stats(g, mode="sampled", sources=4096, seed=0)[0]
        assert abs(approx - exact) <= 0.02 * exact

    def test_distribution_is_hop_pmf(self):
        _, dist, _ = path_length_stats(path_graph(4), mode="exact")
        # ordered pairs: six at distance 1, four at 2, two at 3
        assert dist.support.tolist() == [1, 2, 3]
        assert dist.pmf.tolist() == pytest.approx([0.5, 1 / 3, 1 / 6])

    def test_errors(self):
        with pytest.raises(ValueError):
            path_length_stats(build_graph([], [], n=3))
        with pytest.raises(ValueError):
            path_length_stats(path_graph(3), mode="bogus")
        for sources in (0, -3):
            with pytest.raises(ValueError, match="sources"):
                path_length_stats(path_graph(3), mode="sampled", sources=sources)


class TestAssortativity:
    def test_star_is_minus_one(self):
        for n in (5, 20, 100):
            assert assortativity(star(n)) == pytest.approx(-1.0, abs=1e-12)

    def test_p4_vs_pearson_oracle(self):
        g = path_graph(4)
        assert assortativity(g) == pytest.approx(assortativity_oracle(g), abs=1e-12)

    def test_regular_graph_undefined(self):
        assert assortativity(cycle(8)) is None
        assert assortativity(complete_graph(5)) is None

    def test_no_edges_error(self):
        with pytest.raises(ValueError, match="assortativity undefined without edges"):
            assortativity(build_graph([], [], n=4))

    def test_random_vs_oracle(self):
        for seed in range(5):
            g = random_graph(50, 0.15, seed=seed)
            expected = assortativity_oracle(g)
            got = assortativity(g)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-9)


class TestDistributionType:
    def test_rejects_bad_pmf(self):
        with pytest.raises(ValueError):
            Distribution(support=np.array([1, 2]), pmf=np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            Distribution(support=np.array([2, 1]), pmf=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            Distribution(support=np.array([1]), pmf=np.array([-1.0]))
        # jsd relies on a pmf that sums to 1, so a built one cannot be changed in place
        d = Distribution(support=np.array([1, 2]), pmf=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="read-only"):
            d.pmf[0] = 0.9
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.pmf = np.array([0.9, 0.1])

    @pytest.mark.parametrize("build, message", [
        (lambda: Distribution(np.array([1, 2]), np.array([1.0])), "lengths differ"),
        (lambda: Distribution(np.array([]), np.array([])), "empty distribution"),
        (lambda: Distribution(np.array([0, 1]), np.array([np.nan, np.nan])), "must be finite"),
        (lambda: Distribution(np.array([0, 1]), np.array([np.nan, 1.0])), "must be finite"),
        (lambda: Distribution(np.array([0.0, np.nan]), np.array([0.5, 0.5])), "must be finite"),
        (lambda: Distribution(np.array([np.nan]), np.array([1.0])), "must be finite"),
        (lambda: Distribution(np.array([0.0, np.inf]), np.array([0.5, 0.5])), "must be finite"),
        (lambda: Distribution.from_dict({"support": [0, 1], "pmf": [float("nan"), 1.0]}), "must be finite"),
        (lambda: Distribution.from_dict([[0, 1], [0.5, 0.5]]), "distribution is not a JSON object"),
        (lambda: Distribution.from_counts(np.bincount(np.array([], dtype=np.int64))), "no observations"),
        (lambda: Distribution.from_counts(np.zeros(4, dtype=np.int64)), "no observations"),
        (lambda: Distribution.from_histogram(np.array([]), 10, 0.0, 1.0), "no observations"),
        (lambda: Distribution.from_dict({"support": [0, None], "pmf": [0.5, 0.5]}), "1-D arrays of numbers"),
        (lambda: Distribution.from_dict({"support": ["a", "b"], "pmf": [0.5, 0.5]}), "1-D arrays of numbers"),
        (lambda: Distribution.from_dict({"support": [[0], [1]], "pmf": [0.5, 0.5]}), "1-D arrays of numbers"),
        (lambda: Distribution.from_dict({"support": [0, 1], "pmf": [[0.5], [0.5]]}), "1-D arrays of numbers"),
        (lambda: Distribution.from_dict({"support": [0, 1], "pmf": ["0.5", "0.5"]}), "1-D arrays of numbers"),
        (lambda: Distribution.from_dict({"support": [True, False], "pmf": [0.5, 0.5]}), "1-D arrays of numbers"),
    ], ids=["lengths_differ", "empty", "nan_pmf", "nan_in_pmf", "nan_support", "nan_only_support",
            "inf_support", "nan_pmf_from_json", "json_not_an_object", "no_counts", "all_zero_counts",
            "no_histogram_values", "null_in_support", "string_support", "nested_support", "nested_pmf",
            "string_pmf", "bool_support"])
    def test_rejects_malformed(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=60))
    def test_counts_normalized_and_ecdf_monotone(self, values):
        d = Distribution.from_counts(np.bincount(values))
        support, counts = np.unique(values, return_counts=True)
        assert d.support.dtype == np.int64 and d.support.tolist() == support.tolist()
        assert d.pmf.tolist() == (counts / counts.sum()).tolist()
        assert d.pmf.sum() == pytest.approx(1.0, abs=1e-9)
        e = d.ecdf()
        assert np.all(np.diff(e) >= -1e-12)
        assert e[-1] == pytest.approx(1.0, abs=1e-9)

    def test_roundtrip(self):
        d = Distribution.from_counts(np.bincount([1, 1, 2, 5]))
        d2 = Distribution.from_dict(d.to_dict())
        assert np.array_equal(d.support, d2.support)
        assert np.allclose(d.pmf, d2.pmf)


class TestPropertyReport:
    def test_fields_and_flags(self):
        g = random_graph(120, 0.05, seed=8)
        rep = property_report(g, seed=1)
        s = rep.scalars
        assert list(s) == ["avg_degree", "avg_clustering", "avg_path_length",
                           "global_clustering", "assortativity", "modularity"]
        assert list(rep.distributions) == ["degree", "clustering", "path_length"]
        assert 0.0 <= s["avg_clustering"] <= 1.0
        assert 0.0 <= s["global_clustering"] <= 1.0
        assert s["modularity"] <= 1.0
        assert rep.flags["path_mode"] == "exact"
        for d in rep.distributions.values():
            assert d.pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_json_roundtrip(self):
        rep = property_report(random_graph(60, 0.1, seed=2), seed=0)
        rep2 = type(rep).from_dict(rep.to_dict())
        assert rep2.scalars == rep.scalars
        assert rep2.flags == rep.flags
        assert json.dumps(rep2.to_dict()) == json.dumps(rep.to_dict())
        # key order on disk does not matter; to_dict always emits bundle order
        d = rep.to_dict()
        d["scalars"] = dict(reversed(d["scalars"].items()))
        d["distributions"] = dict(reversed(d["distributions"].items()))
        assert json.dumps(type(rep).from_dict(d).to_dict()) == json.dumps(rep.to_dict())

    def test_needs_a_graph_with_edges(self):
        for g in (build_graph([], [], n=0), build_graph([], [], n=4)):
            with pytest.raises(ValueError, match="non-empty graph with edges"):
                property_report(g)

    def test_from_dict_rejects_other_keys(self):
        d = property_report(random_graph(60, 0.1, seed=2), seed=0).to_dict()
        for part, key in (("scalars", "avg_degree"), ("distributions", "clustering")):
            missing = {**d, part: {k: v for k, v in d[part].items() if k != key}}
            extra = {**d, part: {**d[part], "diameter": d[part][key]}}
            for bad in (missing, extra):
                with pytest.raises(ValueError):
                    PropertyReport.from_dict(bad)

    def test_equals_per_property_functions(self):
        """The report must equal the public per-property functions bit for bit."""
        sizes = [20, 40, 60, 90, 120, 160, 200]
        densities = [0.02, 0.05, 0.08, 0.15, 0.25]
        for i in range(50):
            g = random_graph(sizes[i % 7], densities[i % 5], seed=1000 + i)
            rep = property_report(g, seed=i)
            s, dists = rep.scalars, rep.distributions
            cc, gcc = clustering(g)
            assert s["avg_degree"] == average_degree(g)
            assert s["avg_clustering"] == float(cc.mean())
            assert s["global_clustering"] == gcc
            assert s["assortativity"] == assortativity(g)
            mean, path_dist, _ = path_length_stats(g, mode="exact")
            assert s["avg_path_length"] == mean
            assert s["modularity"] == modularity(g, detect_communities(g, seed=i))
            for got, want in ((dists["degree"], degree_distribution(g)),
                              (dists["clustering"], Distribution.from_histogram(cc, CC_BINS, 0.0, 1.0)),
                              (dists["path_length"], path_dist)):
                assert np.array_equal(got.support, want.support)
                assert np.array_equal(got.pmf, want.pmf)

    def test_one_triangle_pass(self, monkeypatch):
        calls = []
        real = properties.triangle_edge_counts
        monkeypatch.setattr(properties, "triangle_edge_counts", lambda g: calls.append(g) or real(g))
        property_report(random_graph(60, 0.1, seed=4), seed=0)
        assert len(calls) == 1
