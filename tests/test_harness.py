import csv
import dataclasses
import json
import multiprocessing
import os
import signal
import statistics
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from graphsample import harness
from graphsample.generators import GeneratorConfig
from graphsample.harness import (
    DatasetSpec,
    ExperimentConfig,
    aggregate,
    derive_seed,
    read_cell_distributions,
    read_originals,
    read_raw,
    run_experiment,
)
from graphsample.metrics import RATIO_SHIFTS
from graphsample.samplers import SamplerConfig


def tiny_config(out_dir, **overrides):
    base = dict(
        datasets=(
            DatasetSpec(name="mm400", category="synthetic",
                        generator=GeneratorConfig(model="mm", nodes=400, seed=2)),
        ),
        samplers=(SamplerConfig(method="ls"),),
        phis=(0.05, 0.1),
        repetitions=2,
        master_seed=11,
        output_dir=str(out_dir),
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSeeds:
    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(1, "cora", "ls", 0.02, 0)
        b = derive_seed(1, "cora", "ls", 0.02, 0)
        c = derive_seed(1, "cora", "ls", 0.02, 1)
        d = derive_seed(2, "cora", "ls", 0.02, 0)
        assert a == b
        assert len({a, c, d}) == 3
        assert 0 <= a < 2 ** 63


class TestRunExperiment:
    def test_bundle_contents(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        res = run_experiment(cfg)
        # 1 dataset x 1 method x 2 phis x 2 reps x 6 properties
        assert len(res.rows) == 24
        assert not res.failures and not res.errors
        out = res.output_dir
        for name in ("raw.csv", "point_stats.csv", "rmse.csv", "jsd.csv",
                     "summary.csv", "timings.csv", "meta.json"):
            assert (out / name).is_file()
        for kind in ("degree", "clustering", "path_length"):
            assert (out / "dists" / f"mm400.original.{kind}.dist.csv").is_file()
            assert (out / "dists" / f"mm400.ls.{kind}.dist.csv").is_file()
        # the two repetitions used distinct derived seeds, so they differ
        by_rep = {}
        for row in res.rows:
            if row.property == "avg_degree" and row.phi == 0.05:
                by_rep[row.rep] = row.value
        assert by_rep[0] != by_rep[1]

    def test_bundle_writes_are_atomic(self, tmp_path):
        class Killed(dict):
            def get(self, *args):
                raise RuntimeError("killed mid-write")

        res = run_experiment(tiny_config(tmp_path / "out"))
        assert not list(res.output_dir.rglob("*.tmp"))
        raw = res.output_dir / "raw.csv"
        before = raw.read_bytes()
        with pytest.raises(RuntimeError):
            harness._write_dicts(raw, [{"value": 1.0}, Killed()], ["value"])
        assert raw.read_bytes() == before
        assert not list(res.output_dir.glob("*.tmp"))

    def test_reproducible_bytes(self, tmp_path):
        cfg1 = tiny_config(tmp_path / "a")
        cfg2 = tiny_config(tmp_path / "b", phis=tuple(np.array([0.05, 0.1])))   # same values
        r1 = run_experiment(cfg1)
        r2 = run_experiment(cfg2)
        for name in ("raw.csv", "point_stats.csv", "rmse.csv", "jsd.csv", "summary.csv"):
            assert (r1.output_dir / name).read_bytes() == (r2.output_dir / name).read_bytes()
        assert read_raw(r2.output_dir / "raw.csv") == r1.rows

    def test_workers_do_not_change_results(self, tmp_path):
        r1 = run_experiment(tiny_config(tmp_path / "w1", workers=1))
        r2 = run_experiment(tiny_config(tmp_path / "w2", workers=2))
        assert (r1.output_dir / "raw.csv").read_bytes() == (r2.output_dir / "raw.csv").read_bytes()

    def test_original_report_cached(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        run_experiment(cfg)
        res = run_experiment(cfg)  # same output dir: cache hit
        meta = json.loads((res.output_dir / "meta.json").read_text())
        assert meta["datasets"]["mm400"]["original_cache_hit"] is True

    def test_original_cache_keyed_by_package_version(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "out", phis=(0.1,), repetitions=1)
        run_experiment(cfg)
        monkeypatch.setattr(harness, "_pkg_version", harness._pkg_version + ".next")
        res = run_experiment(cfg)
        meta = json.loads((res.output_dir / "meta.json").read_text())
        assert meta["datasets"]["mm400"]["original_cache_hit"] is False
        assert not list((res.output_dir / "cache").glob("*.tmp"))

    def test_original_cache_keyed_by_report_version(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "out", phis=(0.1,), repetitions=1)
        run_experiment(cfg)
        monkeypatch.setattr(harness, "REPORT_VERSION", harness.REPORT_VERSION + 1)
        res = run_experiment(cfg)
        meta = json.loads((res.output_dir / "meta.json").read_text())
        assert meta["datasets"]["mm400"]["original_cache_hit"] is False
        res = run_experiment(cfg)
        meta = json.loads((res.output_dir / "meta.json").read_text())
        assert meta["datasets"]["mm400"]["original_cache_hit"] is True

    def test_dataset_failure_is_isolated(self, tmp_path):
        cfg = tiny_config(
            tmp_path / "out",
            datasets=(
                DatasetSpec(name="missing", path=str(tmp_path / "nope.txt")),
                DatasetSpec(name="mm400", category="synthetic",
                            generator=GeneratorConfig(model="mm", nodes=400, seed=2)),
            ),
        )
        res = run_experiment(cfg)
        assert len(res.failures) == 1 and "missing" in res.failures[0]
        assert len(res.rows) == 24  # the healthy dataset still ran

    def test_sampler_failure_becomes_error_row(self, tmp_path):
        cfg = tiny_config(
            tmp_path / "out",
            samplers=(SamplerConfig(method="ls"),
                      SamplerConfig(method="rd", rd_seeds=100000, tag="rd_bad")),
        )
        res = run_experiment(cfg)
        assert len(res.errors) == 4  # 2 phis x 2 reps
        assert all(e["method"] == "rd_bad" and e["stage"] == "sample" for e in res.errors)
        assert (res.output_dir / "errors.csv").is_file()
        # coverage: rows = cells x 6 minus error cells
        assert len(res.rows) == (8 - 4) * 6

    def test_staged_graphs_released(self, tmp_path, monkeypatch):
        run_experiment(tiny_config(tmp_path / "ok", phis=(0.1,), repetitions=1))
        assert harness._SWEEP is None

        def crash(job):
            raise RuntimeError("cell crashed")

        monkeypatch.setattr(harness, "_run_cell", crash)
        with pytest.raises(RuntimeError, match="cell crashed"):
            run_experiment(tiny_config(tmp_path / "bad", phis=(0.1,), repetitions=1))
        assert harness._SWEEP is None

    def test_dead_worker_fails_the_sweep_instead_of_hanging(self, tmp_path):
        """A cell that SIGKILLs its own pool worker (as the OOM killer would).

        The sweep runs in a forked child with a deadline, so a sweep that
        waits forever for the lost cell fails this test instead of hanging it.
        """
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def sweep():
            os.setpgrp()   # the child and its pool workers form one group, killed together
            driver, real_sample = os.getpid(), harness.sample

            def sample_or_die(g, scfg):
                if os.getpid() != driver and scfg.seed == derive_seed(11, "mm400", "ls", 0.1, 1):
                    os.kill(os.getpid(), signal.SIGKILL)
                return real_sample(g, scfg)

            harness.sample = sample_or_die
            try:
                run_experiment(tiny_config(tmp_path / "out", workers=2))
                send.send("returned")
            except BrokenProcessPool:
                send.send(f"broken, staged graphs released: {harness._SWEEP is None}")
            except Exception as exc:
                send.send(repr(exc))

        child = ctx.Process(target=sweep)
        child.start()
        try:
            got = recv.recv() if recv.poll(60) else "hung"
        finally:
            if child.is_alive():
                os.killpg(child.pid, signal.SIGKILL)
            child.join()
        assert got == "broken, staged graphs released: True"


class TestAggregate:
    def test_point_stats_match_raw_means(self, tmp_path):
        res = run_experiment(tiny_config(tmp_path / "out", repetitions=3))
        out = res.output_dir
        # independent re-derivation from the CSVs alone
        raw = {}
        with open(out / "raw.csv", newline="") as fh:
            for rec in csv.DictReader(fh):
                if rec["value"] == "":
                    continue
                key = (rec["dataset"], rec["method"], float(rec["phi"]), rec["property"])
                raw.setdefault(key, []).append(float(rec["value"]))
        originals = json.loads((out / "originals" / "mm400.json").read_text())["scalars"]
        checked = 0
        with open(out / "point_stats.csv", newline="") as fh:
            for rec in csv.DictReader(fh):
                key = (rec["dataset"], rec["method"], float(rec["phi"]), rec["property"])
                vals = raw[key]
                shift = RATIO_SHIFTS.get(rec["property"], 0.0)
                truth = originals[rec["property"]]
                expect = statistics.mean((v + shift) / (truth + shift) for v in vals)
                assert float(rec["scaling_ratio_mean"]) == pytest.approx(expect, rel=1e-12)
                checked += 1
        assert checked == 12  # 2 phis x 6 properties

    def test_rmse_follows_protocol(self, tmp_path):
        res = run_experiment(tiny_config(tmp_path / "out"))
        out = res.output_dir
        rows = read_raw(out / "raw.csv")
        truth = res.originals["mm400"].scalars["avg_degree"]
        phi_means = []
        for phi in (0.05, 0.1):
            vals = [r.value for r in rows
                    if r.property == "avg_degree" and r.phi == phi]
            phi_means.append(statistics.mean(vals))
        expect = (sum((v - truth) ** 2 for v in phi_means) / len(phi_means)) ** 0.5
        got = [r for r in res.tables.rmse if r["property"] == "avg_degree"][0]["rmse"]
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("tag", [None, "ls.v2"])
    def test_roundtrip_reaggregation(self, tmp_path, tag):
        res = run_experiment(tiny_config(tmp_path / "out",
                                         samplers=(SamplerConfig(method="ls", tag=tag),)))
        out = res.output_dir
        rows = read_raw(out / "raw.csv")
        originals = read_originals(out / "originals")
        dists = read_cell_distributions(out / "dists" / "cells", rows)
        tables = aggregate(rows, originals, cell_dists=dists)
        assert tables.summary == res.tables.summary
        assert tables.rmse == res.tables.rmse
        assert tables.jsd == res.tables.jsd
        assert all(r["jsd_mean"] is not None for r in tables.jsd)

    def test_missing_cells_leave_gaps(self, tmp_path):
        res = run_experiment(tiny_config(tmp_path / "out"))

        def missing(rows):
            tables = aggregate(rows, res.originals)
            rmse_row = next(r for r in tables.rmse if r["property"] == "avg_degree")
            return [w for w in tables.warnings if w.startswith("missing cell")], rmse_row["rmse"]

        # one phi missing: RMSE runs over the other phi, but not silently
        warned, value = missing([r for r in res.rows
                                 if not (r.property == "avg_degree" and r.phi == 0.05)])
        assert warned == ["missing cell: mm400/ls/phi=0.05/avg_degree"]
        assert value is not None
        # every phi missing: the rmse row is an explicit gap
        warned, value = missing([r for r in res.rows if r.property != "avg_degree"])
        assert warned == ["missing cell: mm400/ls/phi=0.05/avg_degree",
                          "missing cell: mm400/ls/phi=0.1/avg_degree"]
        assert value is None


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.to_dict()))
        cfg2 = ExperimentConfig.from_json(p)
        assert cfg2 == cfg

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict({
                "datasets": [{"name": "x", "path": "p"}],
                "samplers": [{"method": "ls"}],
                "bogus_knob": 1,
            })
        with pytest.raises(ValueError, match="unknown"):
            # the finalize mode is chosen per sampler only
            ExperimentConfig.from_dict({
                "datasets": [{"name": "x", "path": "p"}],
                "samplers": [{"method": "ls"}],
                "finalize_mode": "induced",
            })
        with pytest.raises(ValueError, match="unknown"):
            DatasetSpec.from_dict({"name": "x", "path": "p", "what": 1})
        # the sweep sets each cell's phi and seed; a config that names them would be overridden
        for key, value in (("phi", 0.5), ("seed", 7), ("record_steps", True)):
            with pytest.raises(ValueError, match=key):
                ExperimentConfig.from_dict({
                    "datasets": [{"name": "x", "path": "p"}],
                    "samplers": [{"method": "ls"}, {"method": "fs", key: value}],
                })
        for missing, message in (("datasets", "no datasets"), ("samplers", "no samplers")):
            d = {"datasets": [{"name": "x", "path": "p"}], "samplers": [{"method": "ls"}]}
            del d[missing]
            with pytest.raises(ValueError, match=message):
                ExperimentConfig.from_dict(d).validate()

    def test_json_config_keeps_each_sampler_finalize_mode(self, tmp_path, monkeypatch):
        seen = {}
        real_sample = harness.sample

        def spy(g, scfg):
            seen[scfg.label] = scfg.finalize_mode
            return real_sample(g, scfg)

        monkeypatch.setattr(harness, "sample", spy)
        # shaped like the README example: FS names its mode, LS takes the default
        cfg = ExperimentConfig.from_dict({
            "output_dir": str(tmp_path / "out"),
            "master_seed": 20,
            "phis": [0.1],
            "repetitions": 1,
            "datasets": [{"name": "sw", "category": "synthetic",
                          "generator": {"model": "sw", "nodes": 300, "seed": 100}}],
            "samplers": [{"method": "fs", "finalize_mode": "collected"}, {"method": "ls"}],
        })
        res = run_experiment(cfg)
        assert not res.errors
        assert seen == {"fs": "collected", "ls": "induced"}

    def test_validation(self, tmp_path):
        cfg = tiny_config(tmp_path / "o", repetitions=0)
        with pytest.raises(ValueError):
            cfg.validate()
        cfg = tiny_config(tmp_path / "o", phis=(0.5, 2.0))
        with pytest.raises(ValueError):
            cfg.validate()
        cfg = tiny_config(tmp_path / "o", phis=(0.1, 0.1))   # would run every cell twice
        with pytest.raises(ValueError, match="unique"):
            cfg.validate()
        cfg = tiny_config(tmp_path / "o", samplers=(
            SamplerConfig(method="ls"), SamplerConfig(method="ls")))
        with pytest.raises(ValueError, match="label"):
            cfg.validate()
        # each cell sets phi, seed and record_steps, so a Python-built sampler may not
        for field, kw in (("phi", dict(phi=0.5)), ("seed", dict(seed=7)),
                          ("record_steps", dict(record_steps=False))):
            cfg = tiny_config(tmp_path / "o", samplers=(SamplerConfig(method="ls", **kw),))
            with pytest.raises(ValueError, match=f"'{field}'"):
                cfg.validate()
        for bad in (dict(path_mode="bogus"), dict(path_sources=0), dict(path_sources=-3)):
            with pytest.raises(ValueError, match="path_"):
                tiny_config(tmp_path / "o", **bad).validate()
        # a mistyped sampler fails before any original report is computed
        for sampler, message in (({"method": "xz"}, "unknown method 'xz'"),
                                 ({"method": "ls", "finalize_mode": "colected"},
                                  "unknown finalize mode 'colected'")):
            cfg = ExperimentConfig.from_dict({
                "output_dir": str(tmp_path / "o"),
                "datasets": [{"name": "mm", "generator": {"model": "mm", "nodes": 300}}],
                "samplers": [sampler],
            })
            with pytest.raises(ValueError, match=message):
                cfg.validate()
        # so does a mistyped generator, which used to fail only after the other datasets ran
        cfg = ExperimentConfig.from_dict({
            "output_dir": str(tmp_path / "o"),
            "datasets": [{"name": "mm", "generator": {"model": "mm", "nodes": 300}},
                         {"name": "sw", "generator": {"model": "sw", "nodes": 300, "sw_k": 3}}],
            "samplers": [{"method": "ls"}],
        })
        with pytest.raises(ValueError, match="sw_k must be even"):
            cfg.validate()

    def test_dataset_spec_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            DatasetSpec(name="x").validate()
        with pytest.raises(ValueError):
            DatasetSpec(name="x", path="p",
                        generator=GeneratorConfig(model="sw", nodes=100)).validate()
