#!/usr/bin/env python3
"""Run the desk-scale benchmark sweep and print the summary table.

Datasets: cora.txt and topology.txt from the data directory when present,
plus the three synthetic models at a configurable size. All five samplers
run under their defining edge semantics, phi in {0.02..0.1}, 10 repetitions.
Exits 1 when a dataset or a trend check fails.

Usage: python scripts/desk_sweep.py [--nodes 20000] [--reps 10] [--out bench_out]
       [--workers 2] [--master-seed 20] [--data $GRAPHSAMPLE_DATA or data/]
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path

from graphsample.generators import GeneratorConfig
from graphsample.harness import DatasetSpec, ExperimentConfig, default_method_suite, run_experiment

REPO_ROOT = Path(__file__).resolve().parent.parent


def build_datasets(data_dir: Path, nodes: int, gen_seed: int = 100) -> tuple[DatasetSpec, ...]:
    specs = []
    for name, category in (("cora", "citation"), ("topology", "technological")):
        path = data_dir / f"{name}.txt"
        if path.is_file():
            specs.append(DatasetSpec(name=name, path=str(path), category=category))
    for model in ("ff", "sw", "mm"):
        specs.append(DatasetSpec(
            name=model, category="synthetic",
            generator=GeneratorConfig(model=model, nodes=nodes, seed=gen_seed)))
    return tuple(specs)


def desk_config(data_dir: Path, nodes: int = 20000, reps: int = 10, out: str | Path = "bench_out",
                workers: int = 2, master_seed: int = 20) -> ExperimentConfig:
    """The study; tests/test_acceptance.py's criterion 6 runs it with these defaults and pins it."""
    return ExperimentConfig(datasets=build_datasets(data_dir, nodes), samplers=default_method_suite(),
                            phis=(0.02, 0.04, 0.06, 0.08, 0.1), repetitions=reps,
                            master_seed=master_seed, output_dir=str(out), workers=workers)


def ordering_checks(summary: list[dict]) -> dict[str, tuple[bool, dict]]:
    """The trend checks, each as (passed, the compared summary row as {method: value}):
    LS best at clustering RMSE and path-length JSD, FS or XS beats RD on
    assortativity RMSE. A check fails when a value it compares is missing."""
    rows = {(r["metric"], r["property"]): {k: v for k, v in r.items() if k not in ("metric", "property")}
            for r in summary}
    cc, pl, ar = rows["rmse", "avg_clustering"], rows["jsd", "path_length"], rows["rmse", "assortativity"]
    fs, xs, rd = (ar.get(m) for m in ("fs", "xs", "rd"))

    def ls_lowest(r):
        return None not in r.values() and min(r, key=r.get) == "ls"

    return {
        "ls_lowest_clustering_rmse": (ls_lowest(cc), cc),
        "ls_lowest_path_jsd": (ls_lowest(pl), pl),
        "fs_or_xs_beats_rd_assortativity": (None not in (fs, xs, rd) and min(fs, xs) < rd, ar),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument("--nodes", type=int)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--out")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--master-seed", type=int)
    parser.add_argument("--data", dest="data_dir", type=Path,
                        default=Path(os.environ.get("GRAPHSAMPLE_DATA", REPO_ROOT / "data")))
    cfg = desk_config(**vars(parser.parse_args(argv)))

    t0 = time.time()
    res = run_experiment(cfg)
    print(f"\nswept {len(cfg.datasets)} datasets x {len(cfg.samplers)} methods x "
          f"{len(cfg.phis)} phis x {cfg.repetitions} reps "
          f"in {time.time() - t0:.0f}s -> {res.output_dir}")
    for f in res.failures:
        print(f"FAILED: {f}")

    methods = [s.label for s in cfg.samplers]
    print(f"\n{'metric':8s} {'property':20s} " + " ".join(f"{m:>8s}" for m in methods))
    for row in res.tables.summary:
        cells = " ".join(
            f"{row[m]:8.3f}" if row.get(m) is not None else f"{'-':>8s}" for m in methods)
        print(f"{row['metric']:8s} {row['property']:20s} {cells}")

    print("\ntrend checks:")
    checks = ordering_checks(res.tables.summary)
    for name, (ok, row) in checks.items():
        print(f"  {name}: " + ("PASS" if ok else f"FAIL {row}"))
    return 1 if res.failures or not all(ok for ok, _ in checks.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
