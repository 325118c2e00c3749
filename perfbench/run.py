#!/usr/bin/env python3
"""graphsample benchmark: two workloads, end-to-end metrics and a traced per-layer run.

One workload, as the last stdout line a JSON object with keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1):

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, each in its own process, with every
metric printed by name and unit and the results written to
perfbench/out/results.json:

    python3 perfbench/run.py [--seed 1] [--seconds 20]

Run from a source checkout: the package is imported from ../src. At the
default seed the outputs must match the digests pinned in golden.json;
--pin rewrites that workload's entry from the current program.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the harness's pool workers are the only parallelism.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from tracing import Tracer, count_sum, durations, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_REPS = 3
WORKLOAD_NAMES = ("desk_sweep", "sample_large")
MIN_ITERATIONS = 3          # untraced iterations of an untraced run
MIN_TRACED_PAIRS = 2        # untraced + traced pairs of a traced run
METHODS = ("fs", "xs", "rd", "ls", "hj")
SAMPLER_COUNTS = ("steps", "restarts", "teleports", "jumps", "trims")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names() -> list[str]:
    # Per-operation percentiles: sample_large has only a few heterogeneous
    # operations, whose p90 jumps between sampler methods from seed to seed,
    # so these are reported without a bound.
    names = ["cell_p50_s", "cell_p90_s", "cells_per_s"]
    names += ["graph.load_edge_list_s", "graph.load_edges_per_s", "graph.sample_subgraph_s"]
    names += [f"generators.{m}.generate_s" for m in ("ff", "sw", "mm")]
    names += [f"samplers.{m}_s" for m in METHODS] + ["samplers.finalize_s"]
    for m in METHODS:
        names += [f"samplers.{m}.{c}" for c in SAMPLER_COUNTS] + [f"samplers.{m}.yield"]
    names += ["properties.path_length_stats.exact_s", "properties.path_length_stats.sampled_s",
              "properties.triangle_edge_counts_s", "properties.assortativity_s",
              "properties.property_report_s", "properties.path_sources",
              "properties.lcc_fraction", "properties.triangle_passes_per_report"]
    names += ["community.detect_communities_s", "community.modularity_s",
              "community.community_count"]
    names += ["harness.originals_s", "harness.cell_sample_s_sum", "harness.cell_properties_s_sum",
              "harness.pool_busy_frac", "harness.aggregate_s", "harness.cache_hits"]
    names += [f"{layer}.self_s" for layer in ("graph", "generators", "samplers", "properties",
                                             "community", "metrics", "harness")]
    names += ["trace.overhead_s", "trace.spans"]
    return names


def unit_of(name: str) -> str:
    if name in dict(END_TO_END):
        return dict(END_TO_END)[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("_s_sum"):
        return "s"
    if name.endswith((".yield", ".lcc_fraction", ".pool_busy_frac")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# One workload in this process


def _import_package():
    """Import graphsample from this checkout's src/, never from elsewhere."""
    if not (SRC / "graphsample" / "__init__.py").is_file():
        sys.exit(f"perfbench: no graphsample package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import graphsample

    if Path(graphsample.__file__).resolve().parent != (SRC / "graphsample").resolve():
        sys.exit(f"perfbench: imported graphsample from {graphsample.__file__}, not {SRC}")
    return graphsample


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _warm_up(gs) -> None:
    """Import lazily loaded modules and take first-call costs outside the timing."""
    from graphsample.harness import default_method_suite

    for model in ("ff", "sw", "mm"):
        g = gs.generate(gs.GeneratorConfig(model=model, nodes=300, seed=0))
        gs.property_report(g, path_mode="sampled", path_sources=16)
        for scfg in default_method_suite():
            gs.sample(g, gs.SamplerConfig(method=scfg.method, phi=0.1, record_steps=False,
                                          finalize_mode=scfg.finalize_mode))


def _percentile(values: list[float], q: float) -> float:
    """Nearest rank: an observed value with at most (1 - q) of the values above it.

    Unlike interpolation it never lands in the gap between two clusters of
    operation times (one sampler method and the next).
    """
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def layer_metrics(spans, outcome, main_pid: int) -> dict[str, float]:
    """Per-layer numbers of one traced iteration."""
    def total(name, tag=None):
        return sum(durations(spans, name, tag))

    m: dict[str, float] = {}
    load_s = total("graph.load_edge_list")
    m["graph.load_edge_list_s"] = load_s
    m["graph.load_edges_per_s"] = (count_sum(spans, "graph.load_edge_list", "edges") / load_s
                                   if load_s else 0.0)
    m["graph.sample_subgraph_s"] = total("graph.sample_subgraph")
    for meth in METHODS:
        m[f"samplers.{meth}_s"] = total("samplers.sample", meth)
    m["samplers.finalize_s"] = total("samplers.finalize")
    for meth in METHODS:
        for c in SAMPLER_COUNTS:
            m[f"samplers.{meth}.{c}"] = count_sum(spans, "samplers.sample", c, meth)
        steps = m[f"samplers.{meth}.steps"]
        m[f"samplers.{meth}.yield"] = (count_sum(spans, "samplers.sample", "nodes", meth) / steps
                                       if steps else 0.0)
    reports = [s for s in spans if s[2] == "properties.property_report" and s[7] is not None]
    m["properties.path_length_stats.exact_s"] = total("properties.path_length_stats", "exact")
    m["properties.path_length_stats.sampled_s"] = total("properties.path_length_stats", "sampled")
    m["properties.triangle_edge_counts_s"] = total("properties.triangle_edge_counts")
    m["properties.assortativity_s"] = total("properties.assortativity")
    m["properties.property_report_s"] = total("properties.property_report")
    m["properties.path_sources"] = sum(s[7]["path_sources"] for s in reports)
    m["properties.lcc_fraction"] = (statistics.fmean(s[7]["lcc_fraction"] for s in reports)
                                    if reports else 0.0)
    m["properties.triangle_passes_per_report"] = (
        len(durations(spans, "properties.triangle_edge_counts")) / len(reports) if reports else 0.0)
    m["community.detect_communities_s"] = total("community.detect_communities")
    m["community.modularity_s"] = total("community.modularity")
    m["community.community_count"] = sum(s[7]["community_count"] for s in reports)

    # The cell phase runs from the last report in the main process (the
    # originals) to the aggregate call; the pool is busy for the summed cell time.
    runs = [s for s in spans if s[2] == "harness.run_experiment"]
    aggs = [s for s in spans if s[2] == "harness.aggregate"]
    bundle = outcome.bundle
    m["harness.originals_s"] = m["harness.pool_busy_frac"] = 0.0
    if runs and aggs:
        start = runs[0][4]
        originals_end = max((s[5] for s in reports if s[6] == main_pid), default=start)
        m["harness.originals_s"] = originals_end - start
        cell_phase = aggs[0][4] - originals_end
        busy = bundle["cell_sample_s_sum"] + bundle["cell_properties_s_sum"]
        m["harness.pool_busy_frac"] = busy / (cell_phase * bundle["workers"])
    m["harness.cell_sample_s_sum"] = bundle.get("cell_sample_s_sum", 0.0)
    m["harness.cell_properties_s_sum"] = bundle.get("cell_properties_s_sum", 0.0)
    m["harness.aggregate_s"] = total("harness.aggregate")
    m["harness.cache_hits"] = bundle.get("cache_hits", 0)
    for layer, seconds in self_times(spans).items():
        if layer != "generators":
            m[f"{layer}.self_s"] = seconds
    m["trace.spans"] = len(spans)
    return m


def _compare(ref: dict[str, str], got: dict[str, str], what: str) -> list[str]:
    return [f"{key}: digest differs from {what}"
            for key in sorted(set(ref) | set(got)) if ref.get(key) != got.get(key)]


def run_workload(args) -> int:
    gs = _import_package()
    from workloads import WORKLOADS

    golden_path = HERE / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8")) if golden_path.is_file() else {}
    main_pid = os.getpid()
    work = OUT / f"work-{args.workload}-seed{args.seed}-{main_pid}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        _warm_up(gs)

        setup_s: list[float] = []
        generate_s: dict[str, list[float]] = {m: [] for m in ("ff", "sw", "mm")}
        generators_self: list[float] = []
        for _ in range(SETUP_REPS):
            with tracer.installed() if args.trace else nullcontext():
                t0 = perf_counter()
                workload.setup()
                setup_s.append(perf_counter() - t0)
            spans = tracer.take()
            for model in generate_s:
                generate_s[model].append(sum(durations(spans, "generators.generate", model)))
            generators_self.append(self_times(spans)["generators"])

        iterations: list[dict] = []
        reference: dict[str, str] | None = None
        all_spans: list[tuple] = []
        t_start = perf_counter()
        while True:
            traced = bool(args.trace) and len(iterations) % 2 == 1
            out = work / f"iter{len(iterations)}"
            out.mkdir()
            tracer.spill_dir = out
            cpu0 = _cpu_seconds()
            t0 = perf_counter()
            with tracer.installed() if traced else nullcontext():
                result = workload.run(out)
            wall = perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
            tracer.collect_spills()
            spans = tracer.take()
            outcome = workload.check(result, out)
            del result
            if reference is None:
                reference = outcome.digests
                if args.seed == DEFAULT_SEED and not args.pin:
                    outcome.problems += _compare(golden.get(args.workload, {}), reference,
                                                 "the pinned digest")
            else:
                outcome.problems += _compare(reference, outcome.digests, "iteration 0")
            iterations.append({
                "traced": traced, "wall_s": wall, "cpu_s": cpu, "outcome": outcome,
                "layers": layer_metrics(spans, outcome, main_pid) if traced else None,
            })
            all_spans += spans
            shutil.rmtree(out)
            walls = [it["wall_s"] for it in iterations]
            enough = (len(iterations) >= 2 * MIN_TRACED_PAIRS if args.trace
                      else len(iterations) >= MIN_ITERATIONS)
            if enough and perf_counter() - t_start + statistics.median(walls) > args.seconds:
                break

        ru_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ru_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [it for it in iterations if not it["traced"]]
    traced_its = [it for it in iterations if it["traced"]]
    attempted = sum(it["outcome"].attempted for it in iterations)
    failed = sum(min(it["outcome"].attempted, len(it["outcome"].problems)) for it in iterations)
    problems = [p for it in iterations for p in it["outcome"].problems]

    wall_s = statistics.median(it["wall_s"] for it in plain)
    if args.trace:
        metrics = {name: statistics.median(it["layers"][name] for it in traced_its)
                   for name in traced_its[0]["layers"]}
        # from the untraced iterations, so tracing does not shift them
        metrics["cell_p50_s"] = statistics.median(
            _percentile(it["outcome"].op_seconds, 0.5) for it in plain)
        metrics["cell_p90_s"] = statistics.median(
            _percentile(it["outcome"].op_seconds, 0.9) for it in plain)
        metrics["cells_per_s"] = plain[0]["outcome"].attempted / wall_s
        for model, values in generate_s.items():
            metrics[f"generators.{model}.generate_s"] = statistics.median(values)
        metrics["generators.self_s"] = statistics.median(generators_self)
        metrics["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced_its)
                                       - statistics.median(it["wall_s"] for it in plain))
        names = per_layer_names()
    else:
        metrics = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(it["cpu_s"] for it in plain),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": max(ru_self, ru_children) / 1024.0,
        }
        names = [name for name, _ in END_TO_END]
    metrics = {name: {"value": metrics[name], "unit": unit_of(name)} for name in names}

    import numpy
    import scipy

    info = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "iterations": len(plain), "traced_iterations": len(traced_its),
        "ops_per_iteration": plain[0]["outcome"].attempted,
        "error_rate": failed / attempted,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "graphsample": gs.__version__, "src_lines": _src_lines(),
    }
    if args.workload == "desk_sweep":
        info["cells"] = (f"fork pool of {plain[0]['outcome'].bundle['workers']} workers; traced "
                         "runs collect worker spans through per-process spill files")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"info": info, "metrics": metrics, "problems": problems[:50],
              "iterations": [{"traced": it["traced"], "wall_s": it["wall_s"], "cpu_s": it["cpu_s"]}
                             for it in iterations],
              "setup_s": setup_s}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in all_spans:
                fh.write(json.dumps(span) + "\n")

    if args.pin and args.seed == DEFAULT_SEED and not problems:
        golden[args.workload] = reference
        golden_path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"pinned {len(reference)} digests for {args.workload}")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(plain)} untraced + "
          f"{len(traced_its)} traced iterations, {attempted} operations, "
          f"error_rate={info['error_rate']:.4f} ratio, src_lines={info['src_lines']}")
    for p in problems[:20]:
        print(f"  FAILED {p}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Every workload, each in its own process


def run_all(args) -> int:
    summary: dict[str, dict] = {}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                last = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name} trace={trace}: exited {proc.returncode} without a result")
                ok = False
                continue
            ok = ok and last["correct"] and proc.returncode == 0
            entry = summary.setdefault(name, {"attempted": 0, "failed": 0, "metrics": {}})
            entry["attempted"] += last["attempted"]
            entry["failed"] += last["failed"]
            entry["metrics"].update(last["metrics"])
            record = OUT / "results" / f"{name}-seed{args.seed}-trace{trace}.json"
            entry["info"] = json.loads(record.read_text(encoding="utf-8"))["info"]
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT / 'results.json'}; all correct: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="at the default seed, rewrite the workload's pinned digests")
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = ROOT / "BENCHMARK.json"
        args.seconds = json.loads(spec.read_text())["run_seconds"] if spec.is_file() else 20
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
