"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Criteria 2, and the real-dataset halves of 3 and 6, need
data/cora.txt and data/topology.txt (scripts/fetch_datasets.py); they
skip cleanly when the files are absent.
"""

import dataclasses
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from graphsample.generators import GeneratorConfig, generate
from graphsample.graph import load_edge_list
from graphsample.community import detect_communities, modularity
from graphsample.harness import (
    DatasetSpec,
    ExperimentConfig,
    default_method_suite,
    run_experiment,
)
from graphsample.metrics import confidence_interval_95, jsd, rmse, scaling_ratio
from graphsample.properties import (
    Distribution,
    assortativity,
    average_degree,
    clustering,
    degree_distribution,
    path_length_stats,
    property_report,
)
from graphsample.samplers import node_budget, replay_check, sample

from conftest import dataset_path
from oracles import (
    assortativity_oracle,
    average_path_length_oracle,
    degree_histogram_oracle,
    global_clustering_oracle,
    jsd_oracle,
    local_clustering_oracle,
    random_graph,
    star,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(name):
    t0 = time.perf_counter()
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({info['detail']})")
        raise
    print(f"\nACCEPTANCE {name}: PASS ({info['detail']}; {time.perf_counter() - t0:.1f}s)")


# ---------------------------------------------------------------------------


def test_criterion_1_property_oracles():
    with criterion("1 property-oracle suite") as info:
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        sizes = [20, 40, 60, 90, 120, 160, 200]
        densities = [0.02, 0.05, 0.08, 0.15, 0.25]
        for i in range(50):
            g = random_graph(sizes[i % 7], densities[i % 5], seed=1000 + i)

            assert average_degree(g) == pytest.approx(2 * g.m / g.n, abs=1e-12)

            dd = degree_distribution(g)
            got = {int(s): float(p) for s, p in zip(dd.support, dd.pmf)}
            expect = degree_histogram_oracle(g)
            assert set(got) == set(expect)
            assert all(abs(got[k] - expect[k]) <= 1e-9 for k in expect)

            cc, gcc = clustering(g)
            cc_oracle = local_clustering_oracle(g)
            assert float(np.max(np.abs(cc - cc_oracle))) <= 1e-12
            assert cc.mean() == pytest.approx(cc_oracle.mean(), abs=1e-12)
            assert gcc == pytest.approx(global_clustering_oracle(g), abs=1e-12)

            r = assortativity(g)
            r_oracle = assortativity_oracle(g)
            if r_oracle is None:
                assert r is None
            else:
                assert r == pytest.approx(r_oracle, abs=1e-9)

            mean, _, _ = path_length_stats(g, mode="exact")
            assert mean == pytest.approx(average_path_length_oracle(g), abs=1e-9)

            labels = rng.integers(0, 4, size=g.n)
            _, dense = np.unique(labels, return_inverse=True)
            from oracles import modularity_oracle
            assert modularity(g, dense) == pytest.approx(
                modularity_oracle(g, dense), abs=1e-9)
        elapsed = time.perf_counter() - t0
        info["detail"] = f"50 random graphs, all oracles matched, {elapsed:.1f}s"
        assert elapsed < 60.0


# ---------------------------------------------------------------------------

TABLE1 = {
    "cora": dict(n=23166, m=89157, avg_degree=7.69, avg_clustering=0.31,
                 avg_path_length=5.74, assortativity=-0.05,
                 global_clustering=0.12, modularity=0.78),
    "topology": dict(n=34761, m=107720, avg_degree=6.19, avg_clustering=0.42,
                     avg_path_length=3.78, assortativity=-0.21,
                     global_clustering=0.05, modularity=0.61),
}


def _check_table1(name, path, info):
    exp = TABLE1[name]
    g = load_edge_list(path)
    assert (g.n, g.m) == (exp["n"], exp["m"]), f"{name}: loaded n={g.n} m={g.m}"
    avg = average_degree(g)
    assert avg == pytest.approx(2 * exp["m"] / exp["n"], abs=1e-12)
    assert abs(avg - exp["avg_degree"]) <= 0.015          # table prints 2 decimals
    cc, gcc = clustering(g)
    assert abs(cc.mean() - exp["avg_clustering"]) <= 0.01
    assert abs(gcc - exp["global_clustering"]) <= 0.01
    assert abs(assortativity(g) - exp["assortativity"]) <= 0.01
    mean, _, _ = path_length_stats(g, mode="sampled", sources=1024, seed=0)
    assert abs(mean - exp["avg_path_length"]) <= 0.15
    q = modularity(g, detect_communities(g, seed=0))
    assert abs(q - exp["modularity"]) <= 0.05             # soft target, unnamed detector
    info["detail"] += f"{name}: n={g.n} m={g.m} ok. "


def test_criterion_2_table1_cora(cora_path):
    with criterion("2 Table-1 reproduction (cora)") as info:
        t0 = time.perf_counter()
        _check_table1("cora", cora_path, info)
        assert time.perf_counter() - t0 < 300.0


def test_criterion_2_table1_topology(topology_path):
    with criterion("2 Table-1 reproduction (topology)") as info:
        t0 = time.perf_counter()
        _check_table1("topology", topology_path, info)
        assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------


def _contract_battery(g, info, tag):
    for base in default_method_suite():
        for phi in (0.02, 0.1):
            for seed in range(5):
                cfg = dataclasses.replace(base, phi=phi, seed=seed)
                smp = sample(g, cfg)
                budget = node_budget(phi, g.n)
                assert smp.n_nodes == budget
                assert len(set(smp.nodes.tolist())) == budget
                assert 0 <= smp.nodes.min() and smp.nodes.max() < g.n
                chosen = set(smp.nodes.tolist())
                for u, v in smp.edges.tolist():
                    assert u in chosen and v in chosen
                    assert g.has_edge(u, v)
                replay_check(g, smp)
                again = sample(g, cfg)
                assert smp.nodes.tobytes() == again.nodes.tobytes()
                assert smp.edges.tobytes() == again.edges.tobytes()
    info["detail"] += f"{tag}: 5 methods x 2 phis x 5 seeds ok. "


def test_criterion_3_sampler_contracts_synthetic():
    with criterion("3 sampler contracts (SW n=20000)") as info:
        t0 = time.perf_counter()
        g = generate(GeneratorConfig(model="sw", nodes=20000, seed=1))
        _contract_battery(g, info, "sw20000")
        assert time.perf_counter() - t0 < 300.0


def test_criterion_3_sampler_contracts_cora(cora_path):
    with criterion("3 sampler contracts (cora)") as info:
        t0 = time.perf_counter()
        _contract_battery(load_edge_list(cora_path), info, "cora")
        assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------


def test_criterion_4_walk_statistics():
    with criterion("4 walker-choice and MH-acceptance statistics") as info:
        t0 = time.perf_counter()
        from graphsample.graph import induced_subgraph, largest_connected_component
        from graphsample.samplers import SamplerConfig, frontier_sample, hybrid_jump_sample

        base = random_graph(100, 0.05, seed=12)
        g = induced_subgraph(base, largest_connected_component(base))
        draws = []
        for seed in range(200):
            smp = frontier_sample(g, SamplerConfig("fs", phi=0.9, seed=seed))
            draws.extend(smp.telemetry.walker_draws)
        assert len(draws) >= 10_000
        observed = sum(d for _, _, _, d in draws)
        expected = sum(s2 / s1 for s1, s2, _, _ in draws)
        variance = sum(s3 / s1 - (s2 / s1) ** 2 for s1, s2, s3, _ in draws)
        z_gap = abs(observed - expected)
        assert z_gap <= 3.0 * math.sqrt(variance)

        g2 = star(100)
        proposals = []
        for seed in (0, 1):
            smp = hybrid_jump_sample(g2, SamplerConfig("hj", phi=1.0, seed=seed, hj_alpha=0.0))
            proposals.extend(smp.telemetry.proposals)
        leaf = [acc for dv, dw, acc in proposals if dv == 1 and dw == 99]
        n = len(leaf)
        assert n >= 10_000
        accepted = sum(leaf)
        p = 1.0 / 99.0
        gap = abs(accepted - n * p)
        assert gap <= 3.0 * math.sqrt(n * p * (1 - p))
        info["detail"] = (f"{len(draws)} walker draws (|z|<=3sigma), "
                          f"{n} leaf proposals, acc {accepted / n:.4f} vs {p:.4f}")
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------


def test_criterion_5_metric_laws():
    with criterion("5 metric-law suite") as info:
        t0 = time.perf_counter()
        rng = np.random.default_rng(55)

        def rand_dist():
            size = int(rng.integers(1, 8))
            support = np.sort(rng.choice(24, size=size, replace=False)).astype(np.float64)
            w = rng.random(size) + 1e-3
            return Distribution(support=support, pmf=w / w.sum())

        for _ in range(1000):
            p, q, r = rand_dist(), rand_dist(), rand_dist()
            dpq, dqp = jsd(p, q), jsd(q, p)
            assert dpq == pytest.approx(dqp, abs=1e-12)          # symmetry
            assert jsd(p, p) == 0.0                              # identity
            assert -1e-12 <= dpq <= 1.0 + 1e-12                  # base-2 bound
            assert jsd(p, r) <= dpq + jsd(q, r) + 1e-12          # triangle
        # spot-check against the term-by-term oracle
        for _ in range(50):
            p, q = rand_dist(), rand_dist()
            pd = {float(s): float(w) for s, w in zip(p.support, p.pmf)}
            qd = {float(s): float(w) for s, w in zip(q.support, q.pmf)}
            assert jsd(p, q) == pytest.approx(jsd_oracle(pd, qd), abs=1e-10)

        for _ in range(200):
            vals = rng.normal(size=int(rng.integers(1, 10)))
            truth = float(rng.normal())
            direct = math.sqrt(sum((v - truth) ** 2 for v in vals) / len(vals))
            assert rmse(vals, truth) == pytest.approx(direct, abs=1e-12)

        for _ in range(200):
            vals = rng.normal(size=int(rng.integers(2, 12)))
            ci = confidence_interval_95(vals)
            assert ci.mean == pytest.approx(float(np.mean(vals)), abs=1e-12)
            assert ci.half_width == pytest.approx(
                1.96 * float(np.std(vals, ddof=1)) / math.sqrt(len(vals)), abs=1e-12)

        assert scaling_ratio(0.3, 0.3) == pytest.approx(1.0)
        assert scaling_ratio(-0.05, -0.05, shift=1.0) == pytest.approx(1.0)
        assert scaling_ratio(1.0, 0.0) is None
        elapsed = time.perf_counter() - t0
        info["detail"] = f"1000 JSD triples + RMSE/CI oracles, {elapsed:.1f}s"
        assert elapsed < 30.0


# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_trend_reproduction(tmp_path):
    with criterion("6 trend reproduction at desk scale") as info:
        t0 = time.perf_counter()
        specs = []
        for name, cat in (("cora", "citation"), ("topology", "technological")):
            p = dataset_path(f"{name}.txt")
            if p is not None:
                specs.append(DatasetSpec(name=name, path=str(p), category=cat))
        for model in ("ff", "sw", "mm"):
            specs.append(DatasetSpec(
                name=model, category="synthetic",
                generator=GeneratorConfig(model=model, nodes=20000, seed=100)))

        cfg = ExperimentConfig(
            datasets=tuple(specs),
            samplers=default_method_suite(),
            phis=(0.02, 0.04, 0.06, 0.08, 0.1),
            repetitions=10,
            master_seed=20,
            output_dir=str(tmp_path / "sweep"),
            workers=2,
        )
        res = run_experiment(cfg)
        assert not res.failures and not res.errors

        def summary_row(metric, prop):
            row = next(r for r in res.tables.summary
                       if r["metric"] == metric and r["property"] == prop)
            return {k: v for k, v in row.items()
                    if k not in ("metric", "property") and v is not None}

        cc = summary_row("rmse", "avg_clustering")
        pl = summary_row("jsd", "path_length")
        ar = summary_row("rmse", "assortativity")
        names = ",".join(d.name for d in cfg.datasets)
        info["detail"] = (
            f"datasets[{names}] "
            f"cc_rmse={ {k: round(v, 3) for k, v in cc.items()} } "
            f"path_jsd={ {k: round(v, 3) for k, v in pl.items()} } "
            f"assort_rmse={ {k: round(v, 3) for k, v in ar.items()} }")
        assert min(cc, key=cc.get) == "ls", f"(a) clustering RMSE: {cc}"
        assert min(pl, key=pl.get) == "ls", f"(b) path-length JSD: {pl}"
        assert min(ar["fs"], ar["xs"]) < ar["rd"], f"(c) assortativity RMSE: {ar}"
        assert time.perf_counter() - t0 < 1800.0


# ---------------------------------------------------------------------------


def test_criterion_7_full_scale_procedure_documented():
    with criterion("7 full-scale manual procedure documented") as info:
        doc = (REPO_ROOT / "docs" / "full_scale.md").read_text(encoding="utf-8")
        for needle in ("bench run", "actors", "digg", "hyves", "300000",
                       "fetch_datasets", "rmse.csv", "jsd.csv"):
            assert needle in doc, f"missing {needle!r}"
        info["detail"] = "docs/full_scale.md covers datasets, commands, and outputs"
