#!/usr/bin/env python3
"""Paired A/B runs of the benchmark: a git revision against this checkout or another revision.

Each pair runs ``perfbench/run.py --trace 0`` once on each side: the
parent from a ``git archive REV | tar -x`` extract, the change from this
checkout's working tree, or with ``--change REV`` from an extract of that
revision. Each side runs its own run.py, which imports its own src/. The
sides alternate, the parent first in odd pairs.

For each end-to-end metric of BENCHMARK.json the record holds both
medians, the parent's quartiles, the pairs the change won and lost (ties
count for neither), the median paired ratio change / parent, and whether
the gap between the medians exceeds the parent's interquartile range.
Against the metric's ``bound`` it also holds ``within_bound`` (the
change's median is no worse than the parent's by more than bound × the
parent's median) and ``unresolved`` (the parent's IQR alone exceeds
bound × its median, so a gap of the bound's size cannot be told apart).
Every run is kept with its metrics, ``correct`` and ``failed``. The
record, with the commits, the Python and numpy versions, nproc and both
trees' src/ line counts, is written to BENCH_<label>.json at the repo
root. Exits 1 when any run is not correct.

Usage: python scripts/bench_ab.py --against REV [--change REV] [--pairs 10]
       [--workload W ...] [--seed 1] [--seconds 20] [--label ab]
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk_sweep", "sample_large")
RUN_TIMEOUT = 900   # seconds for one run.py process


def quartiles(values: list[float]) -> tuple[float, float]:
    """(q1, q3), interpolated linearly between the order statistics."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """A/B statistics of one metric over the pairs (parent[i], change[i])."""
    sign = 1 if better == "lower" else -1    # sign * (p - c) > 0: the change is better
    q1, q3 = quartiles(parent)
    pm, cm = statistics.median(parent), statistics.median(change)
    ratios = [c / p for p, c in zip(parent, change) if p]
    return {
        "parent_median": pm,
        "change_median": cm,
        "parent_q1": q1,
        "parent_q3": q3,
        "pairs": len(parent),
        "pairs_won": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "pairs_lost": sum(sign * (p - c) < 0 for p, c in zip(parent, change)),
        "median_ratio": statistics.median(ratios) if ratios else None,
        "gap_exceeds_iqr": abs(cm - pm) > q3 - q1,
        "within_bound": sign * (cm - pm) <= bound * pm,
        "unresolved": q3 - q1 > bound * pm,
    }


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of ``root``'s run.py: correct, attempted, failed and the metric values."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    try:
        last = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} without a result:\n"
                           f"{proc.stderr[-2000:]}") from None
    return {"correct": last["correct"] and proc.returncode == 0,
            "attempted": last["attempted"], "failed": last["failed"],
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def run_pairs(roots: dict[str, Path], workload: str, pairs: int, seed: int, seconds: float,
              spec: dict[str, tuple[str, float]], runner: Callable[..., dict] = run_once) -> dict:
    """``pairs`` alternating runs of the "parent" and "change" roots, and their A/B statistics.

    ``spec`` maps each compared metric to its (better, bound).
    """
    runs = []
    for pair in range(1, pairs + 1):
        for side in ("parent", "change") if pair % 2 else ("change", "parent"):
            run = runner(roots[side], workload, seed, seconds)
            runs.append({"pair": pair, "side": side, **run})
            print(f"{workload} pair {pair} {side}: correct={run['correct']} failed={run['failed']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)
    by_side = {side: [r["metrics"] for r in runs if r["side"] == side] for side in roots}
    ab = {name: compare([m[name] for m in by_side["parent"]], [m[name] for m in by_side["change"]], *rule)
          for name, rule in spec.items()}
    return {"runs": runs, "ab": ab}


def src_lines(root: Path) -> int:
    """Lines of src/**/*.py, counted as perfbench/run.py counts them."""
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py"))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO_ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: Path) -> Path:
    """Write ``rev``'s committed tree into a new directory ``dest`` by ``git archive``."""
    archive = subprocess.run(["git", "-C", str(REPO_ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV")
    parser.add_argument("--change", metavar="REV", help="default: this checkout's working tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--label", default="ab")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    record = {
        "label": args.label,
        "commit": git("rev-parse", f"{args.change or 'HEAD'}^{{commit}}"),
        "dirty": not args.change and bool(git("status", "--porcelain", "--untracked-files=no")),
        "against": {"rev": args.against, "commit": git("rev-parse", f"{args.against}^{{commit}}")},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "workloads": {},
    }
    out = REPO_ROOT / f"BENCH_{args.label}.json"
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        roots = {"parent": extract(record["against"]["commit"], Path(tmp) / "parent"),
                 "change": extract(record["commit"], Path(tmp) / "change") if args.change else REPO_ROOT}
        record["src_lines"] = {side: src_lines(root) for side, root in roots.items()}
        for workload in args.workload or WORKLOADS:
            record["workloads"][workload] = run_pairs(roots, workload, args.pairs, args.seed,
                                                      args.seconds, rules)
            out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    ok = True
    for workload, result in record["workloads"].items():
        ok = ok and all(r["correct"] for r in result["runs"])
        print(f"\n{workload}: {args.pairs} pairs against {args.against}")
        print(f"  {'metric':12s} {'parent':>9s} {'q1..q3':>19s} {'change':>9s} {'won':>7s} "
              f"{'ratio':>6s}  gap > IQR  in bound  unresolved")
        for name, s in result["ab"].items():
            ratio = f"{s['median_ratio']:.3f}" if s["median_ratio"] is not None else "-"
            print(f"  {name:12s} {s['parent_median']:9.4g} {s['parent_q1']:9.4g}..{s['parent_q3']:<9.4g} "
                  f"{s['change_median']:9.4g} {s['pairs_won']:>3d}/{s['pairs']:<3d} {ratio:>6s}  "
                  f"{str(s['gap_exceeds_iqr']):9s}  {str(s['within_bound']):8s}  {s['unresolved']}")
    print(f"\nwrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
