"""Benchmark orchestration: sweeps over (dataset, method, phi, repetition).

A run loads or generates every dataset, computes (and caches) the
original property report, executes all sampling cells with seeds derived
from the master seed, and writes a machine-readable report bundle:

    raw.csv          dataset,method,phi,rep,property,value
    point_stats.csv  scaling-ratio means with 95% CI half-widths
    rmse.csv         per (dataset, method, property)
    jsd.csv          per (dataset, method, distribution) at the lowest phi
    summary.csv      per-method averages across datasets
    dists/           per-distribution support,pmf,ecdf files
    dists/cells/     per-repetition distributions of each (dataset, method)
    originals/       the original-graph property reports
    errors.csv       dataset,method,phi,rep,stage,message; only if a cell failed
    timings.csv      per-cell wall times (kept out of the deterministic set)
    meta.json        config echo, versions, timestamps, warnings
    cache/           original reports, keyed by graph, path settings, seed,
                     package version and report version

Identical configs (including the master seed) reproduce every CSV
byte for byte; wall-clock data lives only in timings.csv and meta.json.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import dataclasses
import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from . import __version__ as _pkg_version
from .generators import GeneratorConfig, generate
from .graph import Graph, load_edge_list
from .metrics import RATIO_SHIFTS, align_supports, confidence_interval_95, jsd, rmse, scaling_ratio
from .properties import (DISTRIBUTIONS as DISTRIBUTION_KINDS, PATH_MODES, REPORT_VERSION,
                         SCALARS as PROPERTY_ORDER, Distribution, PropertyReport, property_report)
from .samplers import Sample, SamplerConfig, sample, sample_subgraph

__all__ = [
    "DatasetSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "ReportRow",
    "Tables",
    "aggregate",
    "default_method_suite",
    "derive_seed",
    "load_dataset",
    "read_cell_distributions",
    "read_originals",
    "read_raw",
    "run_experiment",
    "write_distribution_csv",
    "write_tables",
]

@dataclass(frozen=True)
class DatasetSpec:
    """A dataset is either an edge-list file or a generator config."""

    name: str
    path: str | None = None
    generator: GeneratorConfig | None = None
    category: str = ""

    def validate(self) -> None:
        if (self.path is None) == (self.generator is None):
            raise ValueError(f"dataset {self.name!r}: set exactly one of path/generator")
        if self.generator is not None:
            self.generator.validate()

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        gen = d.get("generator")
        gen = None if gen is None else _from_dict(GeneratorConfig, gen, "generator")
        return _from_dict(cls, d, "dataset", generator=gen)


def _from_dict(cls, d: dict, what: str, **parsed):
    """Build dataclass ``cls`` from JSON dict ``d``; ``parsed`` holds fields already converted."""
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} config keys: {sorted(unknown)}")
    return cls(**{**d, **parsed})


# sampler fields that each cell sets, and the defaults a config leaves them at
_SWEEP_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SamplerConfig)
                   if f.name in ("phi", "seed", "record_steps")}


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[DatasetSpec, ...]
    samplers: tuple[SamplerConfig, ...]
    phis: tuple[float, ...] = (0.02, 0.04, 0.06, 0.08, 0.1)
    repetitions: int = 10
    master_seed: int = 0
    path_mode: str = "auto"
    path_sources: int = 256
    output_dir: str = "bench_out"
    workers: int = 1

    def __post_init__(self):
        # cell seeds and CSV text use repr(phi), and repr(np.float64(0.1)) is not '0.1'
        object.__setattr__(self, "phis", tuple(float(phi) for phi in self.phis))

    def validate(self) -> None:
        if not self.datasets:
            raise ValueError("no datasets configured")
        if not self.samplers:
            raise ValueError("no samplers configured")
        names = [d.name for d in self.datasets]
        if len(set(names)) != len(names):
            raise ValueError("dataset names must be unique")
        labels = [s.label for s in self.samplers]
        if len(set(labels)) != len(labels):
            raise ValueError("sampler labels must be unique (set tag to disambiguate)")
        for s in self.samplers:
            s.validate()
            owned = sorted(k for k, default in _SWEEP_DEFAULTS.items() if getattr(s, k) != default)
            if owned:
                raise ValueError(f"sampler {s.label!r}: fields {owned} are set by the sweep, not the config")
        for d in self.datasets:
            d.validate()
        if not self.phis:
            raise ValueError("no sampling fractions configured")
        for phi in self.phis:
            if not 0.0 < phi <= 1.0:
                raise ValueError("phis must lie in (0, 1]")
        if len(set(self.phis)) != len(self.phis):
            raise ValueError("phis must be unique")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.path_mode not in PATH_MODES:
            raise ValueError(f"path_mode must be one of {PATH_MODES}")
        if self.path_sources < 1:
            raise ValueError("path_sources must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["samplers"] = [{k: v for k, v in s.items() if k not in _SWEEP_DEFAULTS} for s in d["samplers"]]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        samplers = d.get("samplers", ())
        owned = sorted({k for x in samplers for k in x} & _SWEEP_DEFAULTS.keys())
        if owned:
            raise ValueError(f"sampler config keys {owned} are set by the sweep, not the config")
        return _from_dict(
            cls, d, "experiment",
            datasets=tuple(DatasetSpec.from_dict(x) for x in d.get("datasets", ())),
            samplers=tuple(_from_dict(SamplerConfig, x, "sampler") for x in samplers),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class ReportRow:
    dataset: str
    method: str
    phi: float
    rep: int
    property: str
    value: float | None


@dataclass
class Tables:
    point_stats: list[dict]
    rmse: list[dict]
    jsd: list[dict]
    summary: list[dict]
    warnings: list[str] = field(default_factory=list)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[ReportRow]
    originals: dict[str, PropertyReport]
    tables: Tables
    failures: list[str]
    errors: list[dict]
    output_dir: Path


def derive_seed(master_seed: int, *tokens) -> int:
    """Stable 63-bit seed from the master seed and cell coordinates."""
    text = "|".join([str(master_seed)] + [repr(t) for t in tokens])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def default_method_suite() -> tuple[SamplerConfig, ...]:
    """The five samplers under their defining edge semantics.

    FS, RD and HJ collect edges while traversing; XS is evaluated on the
    subgraph induced over its node set; LS's induction step makes both
    modes coincide. Each SamplerConfig's finalize_mode is the only place
    the mode is chosen.
    """
    return (
        SamplerConfig(method="fs", finalize_mode="collected"),
        SamplerConfig(method="xs", finalize_mode="induced"),
        SamplerConfig(method="rd", finalize_mode="collected"),
        SamplerConfig(method="ls", finalize_mode="induced"),
        SamplerConfig(method="hj", finalize_mode="collected"),
    )


def load_dataset(spec: DatasetSpec) -> Graph:
    spec.validate()
    if spec.path is not None:
        return load_edge_list(spec.path)
    return generate(spec.generator)


@contextlib.contextmanager
def _atomic_open(path: str | Path, newline: str | None = None):
    """Open ``path`` for writing through a temp file that replaces it on success.

    A killed run leaves the old file or none, never a truncated one.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _graph_fingerprint(g: Graph) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(g.indptr).tobytes())
    h.update(np.ascontiguousarray(g.indices).tobytes())
    return h.hexdigest()[:24]


def _original_report(
    g: Graph, spec: DatasetSpec, cfg: ExperimentConfig, cache_dir: Path
) -> tuple[PropertyReport, bool]:
    """Compute or fetch the cached original-graph report. Returns (report, hit)."""
    seed = derive_seed(cfg.master_seed, spec.name, "original")
    # the package and report versions key the cache so a changed property kernel never reuses old reports
    key = (_graph_fingerprint(g) + f"-{cfg.path_mode}-{cfg.path_sources}-{seed}"
           f"-{_pkg_version}-r{REPORT_VERSION}")
    path = cache_dir / f"{spec.name}.{hashlib.sha256(key.encode()).hexdigest()[:16]}.json"
    if path.exists():
        with open(path, "r", encoding="utf-8") as fh:
            return PropertyReport.from_dict(json.load(fh)), True
    rep = property_report(g, path_mode=cfg.path_mode, path_sources=cfg.path_sources, seed=seed)
    # atomic, so a killed run never leaves a truncated file that reads as a hit
    with _atomic_open(path) as fh:
        json.dump(rep.to_dict(), fh)
    return rep, False


# ---------------------------------------------------------------------------
# Cell execution. The config and graphs are staged in a module global before
# forking so pool workers inherit them copy-on-write; a job is only a cell's
# coordinates (dataset, sampler, phi, rep).

_SWEEP: tuple[ExperimentConfig, dict[str, Graph]] | None = None


@dataclass
class _CellResult:
    scalars: dict[str, float | None] | None
    distributions: dict[str, Distribution] | None
    sample_seconds: float
    properties_seconds: float
    error: str | None = None
    stage: str | None = None


def _run_cell(job: tuple[str, SamplerConfig, float, int]) -> _CellResult:
    cfg, graphs = _SWEEP
    ds, scfg, phi, rep_i = job
    seed = derive_seed(cfg.master_seed, ds, scfg.label, phi, rep_i)
    scfg = dataclasses.replace(scfg, phi=phi, seed=seed, record_steps=False)
    g = graphs[ds]
    t0 = time.perf_counter()
    try:
        smp = sample(g, scfg)
    except Exception as exc:  # recorded, not fatal to the sweep
        return _CellResult(None, None, 0.0, 0.0,
                           error=f"{type(exc).__name__}: {exc}", stage="sample")
    t1 = time.perf_counter()
    try:
        sg = sample_subgraph(g, smp)
        rep = property_report(sg, path_mode=cfg.path_mode, path_sources=cfg.path_sources,
                              seed=derive_seed(cfg.master_seed, ds, scfg.label, phi, rep_i, "props"))
    except Exception as exc:
        return _CellResult(None, None, t1 - t0, 0.0,
                           error=f"{type(exc).__name__}: {exc}", stage="properties")
    t2 = time.perf_counter()
    dists = rep.distributions if phi == min(cfg.phis) else None
    return _CellResult(rep.scalars, dists, t1 - t0, t2 - t1)


def _execute_cells(jobs: list[tuple], workers: int) -> list[_CellResult]:
    """Run the cells; a worker that dies raises BrokenProcessPool instead of hanging."""
    if workers <= 1 or len(jobs) <= 1:
        return [_run_cell(j) for j in jobs]
    with concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_run_cell, jobs, chunksize=max(1, len(jobs) // (workers * 8))))


# ---------------------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full sweep and write the report bundle under cfg.output_dir."""
    cfg.validate()
    started = time.time()
    out = Path(cfg.output_dir)
    (out / "cache").mkdir(parents=True, exist_ok=True)
    (out / "originals").mkdir(exist_ok=True)
    (out / "dists" / "cells").mkdir(parents=True, exist_ok=True)

    failures: list[str] = []
    originals: dict[str, PropertyReport] = {}
    dataset_meta: dict[str, dict] = {}
    graphs: dict[str, Graph] = {}

    for spec in cfg.datasets:
        try:
            g = load_dataset(spec)
        except Exception as exc:
            failures.append(f"dataset {spec.name}: {type(exc).__name__}: {exc}")
            continue
        graphs[spec.name] = g
        rep, hit = _original_report(g, spec, cfg, out / "cache")
        originals[spec.name] = rep
        with _atomic_open(out / "originals" / f"{spec.name}.json") as fh:
            json.dump(rep.to_dict(), fh)
        dataset_meta[spec.name] = {
            "n": g.n,
            "m": g.m,
            "category": spec.category,
            "original_cache_hit": hit,
            "load_stats": dataclasses.asdict(g.load_stats) if g.load_stats else None,
        }

    global _SWEEP
    _SWEEP = (cfg, graphs)
    jobs = [(ds, scfg, phi, rep_i) for ds in graphs for scfg in cfg.samplers
            for phi in cfg.phis for rep_i in range(cfg.repetitions)]
    try:
        results = _execute_cells(jobs, cfg.workers)
    finally:
        _SWEEP = None   # do not keep every dataset's CSR alive past the sweep

    rows: list[ReportRow] = []
    errors: list[dict] = []
    timings: list[dict] = []
    cell_dists: dict[tuple[str, str], dict[int, dict[str, Distribution]]] = {}
    for (ds, scfg, phi, rep_i), res in zip(jobs, results):
        label = scfg.label
        timings.append({
            "dataset": ds, "method": label, "phi": phi, "rep": rep_i,
            "sample_seconds": round(res.sample_seconds, 6),
            "properties_seconds": round(res.properties_seconds, 6),
        })
        if res.error is not None:
            errors.append({"dataset": ds, "method": label, "phi": phi, "rep": rep_i,
                           "stage": res.stage, "message": res.error})
            continue
        for prop in PROPERTY_ORDER:
            rows.append(ReportRow(ds, label, phi, rep_i, prop, res.scalars[prop]))
        if res.distributions is not None:
            cell_dists.setdefault((ds, label), {})[rep_i] = res.distributions

    _write_dicts(out / "raw.csv", [dataclasses.asdict(r) for r in rows],
                 [f.name for f in dataclasses.fields(ReportRow)])
    _write_dicts(out / "timings.csv", timings,
                 ["dataset", "method", "phi", "rep", "sample_seconds", "properties_seconds"])
    if errors:
        _write_dicts(out / "errors.csv", errors,
                     ["dataset", "method", "phi", "rep", "stage", "message"])

    _write_cell_distributions(out / "dists" / "cells", cell_dists)
    tables = aggregate(rows, originals, cell_dists=cell_dists)
    write_tables(out, tables, [s.label for s in cfg.samplers])
    _write_distribution_files(out / "dists", originals, cell_dists)

    meta = {
        "config": cfg.to_dict(),
        "versions": _versions(),
        "datasets": dataset_meta,
        "failures": failures,
        "errors": len(errors),
        "warnings": tables.warnings,
        "row_count": len(rows),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started)),
        "elapsed_seconds": round(time.time() - started, 3),
    }
    with _atomic_open(out / "meta.json") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)

    return ExperimentResult(config=cfg, rows=rows, originals=originals, tables=tables,
                            failures=failures, errors=errors, output_dir=out)


def _versions() -> dict:
    import scipy
    return {
        "graphsample": _pkg_version,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# Aggregation


def aggregate(
    rows: Iterable[ReportRow],
    originals: dict[str, PropertyReport],
    cell_dists: dict[tuple[str, str], dict[int, dict[str, Distribution]]] | None = None,
) -> Tables:
    """Fold raw rows into the paper-style tables.

    Scaling ratios get a per-(dataset, method, phi, property) mean and
    95% CI over repetitions. RMSE follows the protocol: each phi cell is
    the mean over repetitions, one RMSE across phis per (dataset, method,
    property). JSD compares per-repetition distributions at the lowest phi
    against the original. Missing or undefined cells leave explicit gaps
    and a warning.
    """
    warnings: list[str] = []
    cells: dict[tuple[str, str, float, str], dict[int, float | None]] = {}
    for row in rows:
        cells.setdefault((row.dataset, row.method, row.phi, row.property), {})[row.rep] = row.value
    # cells are keyed in row order, so datasets and methods keep their first appearance
    datasets_seen = dict.fromkeys(ds for ds, _, _, _ in cells)
    methods_seen = dict.fromkeys(method for _, method, _, _ in cells)
    phis_seen = sorted({phi for _, _, phi, _ in cells})

    point_stats: list[dict] = []
    rmse_rows: list[dict] = []
    jsd_rows: list[dict] = []
    for ds in datasets_seen:
        orig = originals.get(ds)
        if orig is None:
            warnings.append(f"point_stats: no original report for {ds}")
            continue
        truth = orig.scalars
        for method in methods_seen:
            at = {"dataset": ds, "method": method}
            for phi in phis_seen:
                for prop in PROPERTY_ORDER:
                    reps = cells.get((ds, method, phi, prop))
                    if not reps:
                        warnings.append(f"missing cell: {ds}/{method}/phi={phi}/{prop}")
                        continue
                    shift = RATIO_SHIFTS.get(prop, 0.0)
                    t = truth[prop]
                    ratios = [
                        scaling_ratio(v, t, shift)
                        for v in reps.values()
                        if v is not None and t is not None
                    ]
                    ratios = [r for r in ratios if r is not None]
                    row = {**at, "phi": phi, "property": prop,
                           "scaling_ratio_mean": None, "ci95": None, "n": 0}
                    point_stats.append(row)
                    if not ratios:
                        warnings.append(f"point_stats gap: {ds}/{method}/phi={phi}/{prop}")
                        continue
                    ci = confidence_interval_95(ratios)
                    row["scaling_ratio_mean"] = ci.mean
                    row["ci95"] = ci.half_width if ci.half_width is not None else 0.0
                    row["n"] = len(ratios)

            for prop in PROPERTY_ORDER:
                row = {**at, "property": prop, "rmse": None, "rmse_std": None}
                rmse_rows.append(row)
                t = truth[prop]
                if t is None:
                    warnings.append(f"rmse gap (original undefined): {ds}/{prop}")
                    continue
                phi_means: list[float] = []
                per_rep: dict[int, list[float]] = {}
                for phi in phis_seen:
                    reps = cells.get((ds, method, phi, prop))
                    if not reps:
                        continue
                    vals = [v for v in reps.values() if v is not None]
                    if len(vals) != len(reps):
                        warnings.append(f"rmse: undefined sample values at {ds}/{method}/phi={phi}/{prop}")
                    if not vals:
                        continue
                    phi_means.append(float(np.mean(vals)))
                    for r, v in reps.items():
                        if v is not None:
                            per_rep.setdefault(r, []).append(v)
                if phi_means:
                    row["rmse"] = rmse(phi_means, t)
                    rep_rmses = [rmse(vs, t) for vs in per_rep.values() if vs]
                    row["rmse_std"] = float(np.std(rep_rmses, ddof=1)) if len(rep_rmses) > 1 else 0.0

            if not cell_dists:
                continue
            by_rep = cell_dists.get((ds, method), {})
            for kind in DISTRIBUTION_KINDS:
                vals = [jsd(d[kind], orig.distributions[kind]) for _, d in sorted(by_rep.items())]
                row = {**at, "distribution": kind, "jsd_mean": None, "jsd_std": None}
                jsd_rows.append(row)
                if not vals:
                    warnings.append(f"jsd gap: {ds}/{method}/{kind}")
                    continue
                row["jsd_mean"] = float(np.mean(vals))
                row["jsd_std"] = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0

    summary: list[dict] = []
    for metric, table, key, col, names in (
        ("rmse", rmse_rows, "property", "rmse", PROPERTY_ORDER),
        ("jsd", jsd_rows, "distribution", "jsd_mean", DISTRIBUTION_KINDS),
    ):
        for name in names:
            entry: dict[str, Any] = {"metric": metric, "property": name}
            for method in methods_seen:
                vals = [r[col] for r in table
                        if r["method"] == method and r[key] == name and r[col] is not None]
                entry[method] = float(np.mean(vals)) if vals else None
            summary.append(entry)

    return Tables(point_stats=point_stats, rmse=rmse_rows, jsd=jsd_rows,
                  summary=summary, warnings=warnings)


# ---------------------------------------------------------------------------
# Writers / readers


def _fmt(x: Any) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def read_raw(path: str | Path) -> list[ReportRow]:
    rows: list[ReportRow] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(ReportRow(
                dataset=rec["dataset"],
                method=rec["method"],
                phi=float(rec["phi"]),
                rep=int(rec["rep"]),
                property=rec["property"],
                value=float(rec["value"]) if rec["value"] != "" else None,
            ))
    return rows


def _write_dicts(path: Path, rows: list[dict], columns: list[str]) -> None:
    with _atomic_open(path, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([_fmt(r.get(c)) for c in columns])


def write_tables(out: Path, tables: Tables, method_labels: Sequence[str]) -> None:
    """Write point_stats.csv, rmse.csv, jsd.csv and summary.csv under ``out``."""
    _write_dicts(out / "point_stats.csv", tables.point_stats,
                 ["dataset", "method", "phi", "property", "scaling_ratio_mean", "ci95", "n"])
    _write_dicts(out / "rmse.csv", tables.rmse,
                 ["dataset", "method", "property", "rmse", "rmse_std"])
    _write_dicts(out / "jsd.csv", tables.jsd,
                 ["dataset", "method", "distribution", "jsd_mean", "jsd_std"])
    _write_dicts(out / "summary.csv", tables.summary,
                 ["metric", "property"] + list(method_labels))


def write_distribution_csv(path: Path, dist: Distribution) -> None:
    """Write one distribution as support,pmf,ecdf rows."""
    ecdf = dist.ecdf()
    with _atomic_open(path, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["support", "pmf", "ecdf"])
        for s, p, e in zip(dist.support.tolist(), dist.pmf.tolist(), ecdf.tolist()):
            w.writerow([_fmt(s), _fmt(float(p)), _fmt(float(e))])


def _mean_distribution(dists: Sequence[Distribution]) -> Distribution:
    support, pmfs = align_supports(*dists)
    acc = np.zeros(len(support), dtype=np.float64)
    for row in pmfs:   # in repetition order: pmfs.sum(axis=0) may round differently
        acc += row
    acc /= acc.sum()
    return Distribution(support=support, pmf=acc)


def _write_distribution_files(
    dist_dir: Path,
    originals: dict[str, PropertyReport],
    cell_dists: dict[tuple[str, str], dict[int, dict[str, Distribution]]],
) -> None:
    for ds, rep in sorted(originals.items()):
        for kind, dist in rep.distributions.items():
            write_distribution_csv(dist_dir / f"{ds}.original.{kind}.dist.csv", dist)
    for (ds, method), reps in sorted(cell_dists.items()):
        for kind in DISTRIBUTION_KINDS:
            per_rep = [d[kind] for _, d in sorted(reps.items())]
            if per_rep:
                write_distribution_csv(dist_dir / f"{ds}.{method}.{kind}.dist.csv",
                                       _mean_distribution(per_rep))


def _write_cell_distributions(
    cell_dir: Path,
    cell_dists: dict[tuple[str, str], dict[int, dict[str, Distribution]]],
) -> None:
    for (ds, method), reps in sorted(cell_dists.items()):
        payload = {
            str(rep): {kind: d[kind].to_dict() for kind in DISTRIBUTION_KINDS}
            for rep, d in sorted(reps.items())
        }
        with _atomic_open(cell_dir / f"{ds}.{method}.json") as fh:
            json.dump(payload, fh)


def read_cell_distributions(
    cell_dir: str | Path, rows: Iterable[ReportRow],
) -> dict[tuple[str, str], dict[int, dict[str, Distribution]]]:
    """Per-repetition distributions of each (dataset, method) in ``rows`` that has a file.

    File names are looked up from the pairs rather than split, since a
    dataset name or sampler tag may itself contain dots.
    """
    out: dict[tuple[str, str], dict[int, dict[str, Distribution]]] = {}
    cell_dir = Path(cell_dir)
    for ds, method in dict.fromkeys((r.dataset, r.method) for r in rows):
        path = cell_dir / f"{ds}.{method}.json"
        if not path.is_file():
            continue
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        out[(ds, method)] = {
            int(rep): {kind: Distribution.from_dict(d) for kind, d in kinds.items()}
            for rep, kinds in payload.items()
        }
    return out


def read_originals(orig_dir: str | Path) -> dict[str, PropertyReport]:
    out: dict[str, PropertyReport] = {}
    for path in sorted(Path(orig_dir).glob("*.json")):
        with open(path, "r", encoding="utf-8") as fh:
            out[path.stem] = PropertyReport.from_dict(json.load(fh))
    return out
