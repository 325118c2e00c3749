"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Criteria 2, and the real-dataset halves of 3 and 6, need
data/cora.txt and data/topology.txt (scripts/fetch_datasets.py); they
skip cleanly when the files are absent.
"""

import dataclasses
import hashlib
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from graphsample.generators import GeneratorConfig, generate
from graphsample.graph import load_edge_list
from graphsample.community import detect_communities, modularity
from graphsample.harness import default_method_suite, run_experiment
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

import desk_sweep
from conftest import data_dir
from oracles import (
    assortativity_oracle,
    average_path_length_oracle,
    check_against_oracle,
    degree_histogram_oracle,
    frontier_oracle,
    global_clustering_oracle,
    hybrid_jump_oracle,
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

        # the per-step records come from oracles asserted equal to each run
        base = random_graph(100, 0.05, seed=12)
        g = induced_subgraph(base, largest_connected_component(base))
        draws = []
        for seed in range(200):
            cfg = SamplerConfig("fs", phi=0.9, seed=seed)
            draws.extend(check_against_oracle(frontier_sample, frontier_oracle, g, cfg)["walker_draws"])
        assert len(draws) >= 10_000
        observed = sum(wdeg[i] for wdeg, i in draws)
        moments = [[sum(d ** k for d in wdeg) for k in (1, 2, 3)] for wdeg, _ in draws]
        expected = sum(s2 / s1 for s1, s2, _ in moments)
        variance = sum(s3 / s1 - (s2 / s1) ** 2 for s1, s2, s3 in moments)
        z_gap = abs(observed - expected)
        assert z_gap <= 3.0 * math.sqrt(variance)

        g2 = star(100)
        proposals = []
        for seed in (0, 1):
            cfg = SamplerConfig("hj", phi=1.0, seed=seed, hj_alpha=0.0)
            proposals.extend(check_against_oracle(hybrid_jump_sample, hybrid_jump_oracle, g2, cfg)["proposals"])
        leaf = [(dw, acc) for dv, dw, acc in proposals if dv == 1]
        n = len(leaf)
        assert n >= 10_000
        assert all(dw == 99 for dw, _ in leaf)   # a leaf's one neighbour is the hub
        accepted = sum(acc for _, acc in leaf)
        p = 1.0 / 99.0
        gap = abs(accepted - n * p)
        assert gap <= 3.0 * math.sqrt(n * p * (1 - p))
        # the hub's proposals are always accepted (ratio 99 >= 1)
        hub = [acc for dv, _, acc in proposals if dv == 99]
        assert hub and all(hub)
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


# dataset_digests of the synthetic datasets' parts of the criterion-6 bundle. summary.csv is
# left out: it also averages over cora and topology when their files are present.
DESK_PINS = {
    "ff": {
        "originals": "93bd28c474dd22a381d639795c5cdebcfab1cd22e7102babd71299145d770fa5",
        "cells": "2ce740734ee37ce7c2c33046dca3062730e4f1d50d1f1e8cdddcf2185fe93b54",
        "dists": "e83f6428ad1e8e97475d4929db175e4f57427eb5a0c8e38bddf87f80d29daeac",
        "raw.csv": "6a8ede7affad41b332ddf8e7a1d862482cd87d2d7fd38a71c69f9d8fa242b3cc",
        "point_stats.csv": "e07f43a0f9509ec997edb8adff9060e24beac37b7ec01865dfeab8073efb1b1e",
        "rmse.csv": "02a0aa5c86493a8c97091ef429244488e6a3611c5d75d265e38847fa29b7446f",
        "jsd.csv": "8f55011eccea686ee2ab83571a628a2fe7314099ee8713b9c433d4a0120710b3",
    },
    "sw": {
        "originals": "b9e172172bdc618f55b6f12e89bdeacddf0b41f510d554b19aac7eb487ea290d",
        "cells": "fd2c8f14228284fa4521dd78de3477c00ef6bbb3d4a41aaa26c7968ac4cd4725",
        "dists": "a8c704ea86fd998779f83fcdae06387b13fe3de06fc10472adb578b3527dfa34",
        "raw.csv": "180d51a4957be948baab012ce8496f69a38b99715d14a7d021af8212edbfc733",
        "point_stats.csv": "4f742d6a2fb5882584a5a91f004e1a8fd4d3b6773f0047eebfc1e23b704cdc41",
        "rmse.csv": "e098bb049a3d85f6dee2554d761142be69b8f85b8d5b428992eccda5c1053fcf",
        "jsd.csv": "0e1f83150220600d760b2d1d0b93be1014472a1e57045ff42e0ba55ca0c72509",
    },
    "mm": {
        "originals": "74d0b6dce5e4ec6208cb7f18bb7c536d87bfc2b8a128edc4f08622e02f647ec6",
        "cells": "1a893af574f2021051af0dc40d8743d979ea981a39fc83bf362054ea3a44537a",
        "dists": "a0a24944a6544f9aa4a21679a18ad5ed394de23ae7a688e2ae1f82d41d6c10f3",
        "raw.csv": "10673f02b8f2ead172408f302396fc905bf5365c1b05b530a1b33ba79fe08289",
        "point_stats.csv": "36ecf3a5e32ac076965126119fe9f04bea6019e594762a54552b5ea18591f313",
        "rmse.csv": "3fc31111f8173d50c6853ba02797ebc5458be27e84a8ee23702ab0ba22904420",
        "jsd.csv": "d0e5e57d801e3a0a7b3ba6503ecfe842a05d189090718abeb8288c29360069a0",
    },
}


def dataset_digests(bundle: Path, ds: str) -> dict[str, str]:
    """One SHA-256 per part of ``bundle`` that belongs to dataset ``ds``: the files of each glob
    (names and bytes, in name order), and the header plus ``ds``'s rows of each table."""
    def files(pattern):
        return b"".join(p.name.encode() + b"\n" + p.read_bytes() for p in sorted(bundle.glob(pattern)))

    def rows(table):
        header, *lines = (bundle / table).read_bytes().splitlines(keepends=True)
        return header + b"".join(line for line in lines if line.startswith(f"{ds},".encode()))

    parts = {"originals": files(f"originals/{ds}.json"), "cells": files(f"dists/cells/{ds}.*.json"),
             "dists": files(f"dists/{ds}.*.dist.csv"),
             **{t: rows(t) for t in ("raw.csv", "point_stats.csv", "rmse.csv", "jsd.csv")}}
    return {part: hashlib.sha256(data).hexdigest() for part, data in parts.items()}


@pytest.mark.slow
def test_criterion_6_trend_reproduction(tmp_path):
    with criterion("6 trend reproduction at desk scale") as info:
        t0 = time.perf_counter()
        cfg = desk_sweep.desk_config(data_dir(), out=tmp_path / "sweep")
        res = run_experiment(cfg)
        assert not res.failures and not res.errors

        checks = desk_sweep.ordering_checks(res.tables.summary)
        rows = {name: {k: v if v is None else round(v, 3) for k, v in row.items()}
                for name, (_, row) in checks.items()}
        info["detail"] = f"datasets[{','.join(d.name for d in cfg.datasets)}] {rows}"
        assert all(ok for ok, _ in checks.values()), f"trend checks: {checks}"

        moved = [f"{ds}/{part}" for ds, pins in DESK_PINS.items()
                 for part, digest in dataset_digests(res.output_dir, ds).items() if digest != pins[part]]
        assert not moved, f"bundle parts moved: {moved}"
        assert time.perf_counter() - t0 < 1800.0


# ---------------------------------------------------------------------------


def test_criterion_7_full_scale_procedure_documented():
    with criterion("7 full-scale manual procedure documented") as info:
        doc = (REPO_ROOT / "docs" / "full_scale.md").read_text(encoding="utf-8")
        for needle in ("bench run", "actors", "digg", "hyves", "300000",
                       "fetch_datasets", "rmse.csv", "jsd.csv"):
            assert needle in doc, f"missing {needle!r}"
        info["detail"] = "docs/full_scale.md covers datasets, commands, and outputs"
