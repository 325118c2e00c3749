"""The benchmark's workloads, each driven through graphsample's public API.

A workload makes its graphs from the seed and writes them as edge-list
files (``setup``), then runs one timed iteration over those files
(``run``), then checks the outputs outside the timed region (``check``).
The program sees only the files. Why each workload exists is in README.md.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import graphsample as gs
import graphsample.harness as harness
from graphsample import GeneratorConfig

MODELS = ("ff", "sw", "mm")
PHIS = (0.02, 0.04, 0.06, 0.08, 0.1)


def derive(*tokens) -> int:
    """A 63-bit seed from the workload seed and a few labels."""
    text = "|".join(repr(t) for t in tokens)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big") >> 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    """What one iteration did and whether it was right."""

    op_seconds: list[float]                 # one entry per operation attempted and timed
    attempted: int
    problems: list[str] = field(default_factory=list)   # one entry per failed operation or check
    digests: dict[str, str] = field(default_factory=dict)
    bundle: dict[str, float] = field(default_factory=dict)  # desk_sweep: numbers read from the bundle


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.files: dict[str, Path] = {}

    def _write(self, key: str, g: gs.Graph) -> None:
        path = self.work / f"{key}.txt"
        gs.dump_edge_list(g, path)
        self.files[key] = path

    def _generate(self, model: str, nodes: int) -> gs.Graph:
        return gs.generate(GeneratorConfig(model=model, nodes=nodes,
                                           seed=derive(self.seed, self.name, model)))


# ---------------------------------------------------------------------------


class DeskSweep(Workload):
    name = "desk_sweep"
    why = ("run_experiment end to end, cold cache, 150 cells on 2 workers: load, serial "
           "original reports, forked cells, aggregation and writers")
    NODES = 2000
    REPETITIONS = 2
    WORKERS = 2
    DETERMINISTIC = ("raw.csv", "point_stats.csv", "rmse.csv", "jsd.csv", "summary.csv")

    def setup(self) -> None:
        for model in MODELS:
            self._write(model, self._generate(model, self.NODES))

    def config(self, out: Path) -> harness.ExperimentConfig:
        # Built in Python from default_method_suite() so that every sampler keeps
        # its own finalize mode (a JSON config would go through from_dict).
        return harness.ExperimentConfig(
            datasets=tuple(harness.DatasetSpec(name=m, path=str(p), category="synthetic")
                           for m, p in self.files.items()),
            samplers=harness.default_method_suite(),
            phis=PHIS,
            repetitions=self.REPETITIONS,
            master_seed=self.seed,
            output_dir=str(out),
            workers=self.WORKERS,
        )

    def run(self, out: Path):
        return harness.run_experiment(self.config(out))

    def check(self, result, out: Path) -> Outcome:
        cfg = result.config
        expected = len(cfg.datasets) * len(cfg.samplers) * len(cfg.phis) * cfg.repetitions
        with open(out / "timings.csv", "r", encoding="utf-8", newline="") as fh:
            timings = list(csv.DictReader(fh))
        sample_s = [float(r["sample_seconds"]) for r in timings]
        props_s = [float(r["properties_seconds"]) for r in timings]
        outcome = Outcome(op_seconds=[a + b for a, b in zip(sample_s, props_s)], attempted=expected)
        outcome.problems += [f"dataset failure: {f}" for f in result.failures]
        outcome.problems += [f"cell error: {e}" for e in result.errors]
        if len(timings) != expected:
            outcome.problems += [f"{expected - len(timings)} cells never ran"]
        if len(result.rows) != (len(timings) - len(result.errors)) * len(harness.PROPERTY_ORDER):
            outcome.problems.append(f"raw.csv has {len(result.rows)} rows")
        files = [out / f for f in self.DETERMINISTIC]
        files += sorted((out / "dists").glob("*.dist.csv"))
        files += sorted((out / "dists" / "cells").glob("*.json"))
        outcome.digests = {p.relative_to(out).as_posix(): sha256(p.read_bytes()) for p in files}
        with open(out / "meta.json", "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        outcome.bundle = {
            "cell_sample_s_sum": sum(sample_s),
            "cell_properties_s_sum": sum(props_s),
            "cache_hits": sum(bool(d["original_cache_hit"]) for d in meta["datasets"].values()),
            "workers": cfg.workers,
        }
        return outcome


class SampleLarge(Workload):
    name = "sample_large"
    why = ("load plus two sample() calls per method at phi=0.1 on a large connected SW graph and "
           "on a fragmented graph that forces restarts and jumps; no properties")
    SW_NODES = 10000
    GIANT_NODES = 3000          # forest-fire giant component of the fragmented graph
    PATHS = 2000                # plus this many 5-node path components
    PHI = 0.1
    REPETITIONS = 2             # sampler seeds per (graph, method)

    def setup(self) -> None:
        self._write("sw", self._generate("sw", self.SW_NODES))
        giant = self._generate("ff", self.GIANT_NODES)
        ea = giant.edge_array()
        first = self.GIANT_NODES + 5 * np.arange(self.PATHS, dtype=np.int64)[:, None]
        u = np.concatenate([ea[:, 0], (first + np.arange(4)).ravel()])
        v = np.concatenate([ea[:, 1], (first + np.arange(1, 5)).ravel()])
        self._write("frag", gs.build_graph(u, v, n=self.GIANT_NODES + 5 * self.PATHS))

    def run(self, out: Path):
        calls = []
        for key, path in self.files.items():
            g = gs.load_edge_list(path)
            for scfg in harness.default_method_suite():
                for rep in range(self.REPETITIONS):
                    cfg = dataclasses.replace(scfg, phi=self.PHI, record_steps=False,
                                              seed=derive(self.seed, self.name, key, scfg.method, rep))
                    t0 = perf_counter()
                    smp = gs.sample(g, cfg)
                    calls.append((f"{key}/{scfg.method}/{rep}", g, smp, perf_counter() - t0))
        return calls

    def check(self, result, out: Path) -> Outcome:
        outcome = Outcome(op_seconds=[c[-1] for c in result], attempted=len(result))
        edge_keys: dict[str, np.ndarray] = {}
        for where, g, smp, _ in result:
            nodes = np.ascontiguousarray(smp.nodes, dtype=np.int64)
            edges = np.ascontiguousarray(smp.edges, dtype=np.int64).reshape(-1, 2)
            outcome.digests[f"{where}/nodes"] = sha256(nodes.tobytes())
            outcome.digests[f"{where}/edges"] = sha256(edges.tobytes())
            key = where.split("/")[0]
            if key not in edge_keys:
                edge_keys[key] = _keys(g.edge_array(), g.n)
            problem = _sample_problem(g, smp, nodes, edges, edge_keys[key])
            if problem:
                outcome.problems.append(f"{where}: {problem}")
        return outcome


def _keys(edges: np.ndarray, n: int) -> np.ndarray:
    return edges[:, 0] * np.int64(n) + edges[:, 1]


def _sample_problem(g, smp, nodes, edges, graph_keys) -> str | None:
    """The sample contract: exact budget, a node subset, and only real edges."""
    budget = gs.node_budget(smp.phi, g.n)
    if len(nodes) != budget:
        return f"{len(nodes)} nodes, budget {budget}"
    if len(nodes) and (nodes[0] < 0 or nodes[-1] >= g.n or np.any(np.diff(nodes) <= 0)):
        return "nodes are not a sorted subset of the graph"
    if np.any(edges[:, 0] >= edges[:, 1]):
        return "edge rows are not u < v"
    keys = _keys(edges, g.n)
    pos = np.searchsorted(graph_keys, keys)
    if np.any(pos >= len(graph_keys)) or np.any(graph_keys[np.minimum(pos, len(graph_keys) - 1)] != keys):
        return "an edge is not in the graph"
    inside = np.zeros(g.n, dtype=bool)
    inside[nodes] = True
    if not inside[edges].all():
        return "an edge leaves the node set"
    if smp.mode == "induced":
        ea = g.edge_array()
        if len(edges) != int((inside[ea[:, 0]] & inside[ea[:, 1]]).sum()):
            return "induced mode lacks some internal edges"
    return None


WORKLOADS = {w.name: w for w in (DeskSweep, SampleLarge)}
