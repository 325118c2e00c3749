"""Command-line interface.

Subcommands:
    generate    write a synthetic graph as a normalized edge list
    sample      run one sampler on an edge-list file
    properties  emit a JSON property report (and optional distribution CSVs)
    bench run   execute a full experiment config
    bench aggregate
                rebuild every table and ECDF file of a bundle from its raw.csv
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .generators import MODELS, GeneratorConfig, generate
from .graph import dump_edge_list, load_edge_list
from .harness import (
    ExperimentConfig,
    read_cell_distributions,
    read_originals,
    read_raw,
    run_experiment,
    write_distribution_csv,
    write_tables,
)
from .properties import EXACT_PATH_LIMIT, PATH_MODES, PATH_SOURCES, property_report
from .samplers import METHODS, SamplerConfig, sample


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:   # a bad option, config value or file, reported like a bad flag
        parser.error(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphsample")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic graph")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--nodes", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    _add_option_flags(p, GeneratorConfig, MODELS)
    p.add_argument("--out", required=True, help="output edge-list path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sample", help="sample a graph from an edge-list file")
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--phi", required=True, type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["induced", "collected"], default=None,
                   help="default: the method's own rule (FS/RD/HJ collected, XS/LS induced)")
    _add_option_flags(p, SamplerConfig, METHODS)
    p.add_argument("--out", required=True, help="output edge-list path")
    p.add_argument("--sidecar", default=None, help="telemetry JSON path (default: OUT.json)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("properties", help="compute the property report of a graph")
    p.add_argument("--input", required=True)
    p.add_argument("--path-mode", choices=PATH_MODES, default="auto",
                   help=f"as in a bench config; auto is exact up to a {EXACT_PATH_LIMIT}-node LCC")
    p.add_argument("--path-sources", type=int, default=PATH_SOURCES,
                   help="BFS sources when paths are sampled")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", dest="json_out", default=None, help="report path (default: stdout)")
    p.add_argument("--dist-dir", default=None, help="also write support,pmf,ecdf CSVs here")
    p.set_defaults(func=_cmd_properties)

    bench = sub.add_parser("bench", help="benchmark harness")
    bsub = bench.add_subparsers(dest="bench_command", required=True)

    p = bsub.add_parser("run", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None, help="override config workers")
    p.set_defaults(func=_cmd_bench_run)

    p = bsub.add_parser("aggregate", help="rebuild the tables and dists/*.dist.csv from raw.csv, "
                        "reading originals/ and dists/cells/ next to it")
    p.add_argument("--raw", required=True, help="path to raw.csv")
    p.add_argument("--out-dir", default=None, help="where to write tables (default: alongside raw)")
    p.set_defaults(func=_cmd_bench_aggregate)

    return parser


def _add_option_flags(p: argparse.ArgumentParser, cls, prefixes) -> None:
    """One flag per method- or model-prefixed field of ``cls`` (``--fs-walkers``), typed by its
    default (float for None); ``args.options`` names them, and an unset flag stays None."""
    fields = [f for f in dataclasses.fields(cls) if f.name.split("_")[0] in prefixes]
    for f in fields:
        p.add_argument("--" + f.name.replace("_", "-"), default=None, help=f"default: {f.default}",
                       type=float if f.default is None else type(f.default))
    p.set_defaults(options=[f.name for f in fields])


def _given_options(args) -> dict:
    return {k: getattr(args, k) for k in args.options if getattr(args, k) is not None}


def _cmd_generate(args) -> int:
    cfg = GeneratorConfig(model=args.model, nodes=args.nodes, seed=args.seed, **_given_options(args))
    g = generate(cfg)
    dump_edge_list(g, args.out)
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


def _cmd_sample(args) -> int:
    g = load_edge_list(args.input)
    cfg = SamplerConfig(method=args.method, phi=args.phi, seed=args.seed, finalize_mode=args.mode,
                        record_steps=False, **_given_options(args))   # the sidecar holds counters only
    smp = sample(g, cfg)
    orig = g.orig_ids
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"# n={smp.n_nodes} m={smp.n_edges} method={smp.method} phi={smp.phi}\n")
        # orig_ids ascend and sample rows have u < v, so each mapped row stays ordered
        fh.writelines(f"{a} {b}\n" for a, b in orig[smp.edges].tolist())
    sidecar = args.sidecar or (args.out + ".json")
    payload = smp.sidecar(cfg)
    payload["nodes"] = orig[smp.nodes].tolist()
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.out} (+{Path(sidecar).name}): {smp.n_nodes} nodes, {smp.n_edges} edges")
    return 0


def _cmd_properties(args) -> int:
    g = load_edge_list(args.input)
    rep = property_report(g, path_mode=args.path_mode, path_sources=args.path_sources, seed=args.seed)
    payload = rep.to_dict()
    payload["graph"] = {"n": g.n, "m": g.m}
    text = json.dumps(payload, indent=2)
    if args.json_out:
        Path(args.json_out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    if args.dist_dir:
        out = Path(args.dist_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = Path(args.input).stem
        for kind, dist in rep.distributions.items():
            write_distribution_csv(out / f"{stem}.{kind}.dist.csv", dist)
    return 0


def _cmd_bench_run(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    if args.workers is not None:
        cfg = dataclasses.replace(cfg, workers=args.workers)
    result = run_experiment(cfg)
    print(f"wrote report bundle to {result.output_dir}")
    print(f"rows={len(result.rows)} errors={len(result.errors)} failures={len(result.failures)}")
    for f in result.failures:
        print(f"FAILED: {f}", file=sys.stderr)
    return 1 if result.failures else 0


def _cmd_bench_aggregate(args) -> int:
    bundle = Path(args.raw).parent
    rows = read_raw(args.raw)
    out = Path(args.out_dir) if args.out_dir else bundle
    tables = write_tables(out, rows, read_originals(bundle / "originals"),
                          read_cell_distributions(bundle / "dists" / "cells", rows))
    print(f"wrote tables to {out}")
    for w in tables.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
