import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import graphsample

MODULES = ("graphsample", "graphsample.graph", "graphsample.generators",
           "graphsample.samplers", "graphsample.properties", "graphsample.community",
           "graphsample.metrics", "graphsample.harness")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing


def test_cli_imports_only_public_names():
    cli = Path(graphsample.__file__).with_name("cli.py")
    private = []
    for node in ast.walk(ast.parse(cli.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("graphsample")):
            private += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert not private


def test_traced_names_resolve():
    """Every name the benchmark's tracer rebinds still exists in the package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{attr}" for mod, attr, *_ in tracing.TARGETS
               if not hasattr(importlib.import_module(mod), attr)]
    assert tracing.TARGETS and not missing


def test_perfbench_names_resolve():
    """Every package name the benchmark reads (gs.X, harness.X, from graphsample... import X) exists."""
    aliases = {"gs": "graphsample", "harness": "graphsample.harness"}
    missing, seen = [], 0
    for path in sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                refs = [(aliases[node.value.id], node.attr)]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("graphsample"):
                refs = [(node.module, a.name) for a in node.names]
            else:
                continue
            seen += len(refs)
            missing += [f"{path.name}: {mod}.{attr}" for mod, attr in refs
                        if not hasattr(importlib.import_module(mod), attr)]
    assert seen and not missing
