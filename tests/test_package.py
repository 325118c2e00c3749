import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_traced_names_resolve(monkeypatch):
    """Every name the benchmark's tracer rebinds still exists in the package.

    A dropped name would break only the traced benchmark runs. The tracer's
    file is loaded without writing its bytecode next to it.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    if not path.is_file():
        pytest.skip("no perfbench/tracing.py in this tree")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
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


def test_no_scipy_sparse_in_package_processes():
    """Importing the package and the CLI, and computing a report, leave scipy.sparse unloaded."""
    code = ("import sys, graphsample, graphsample.cli\n"
            "from graphsample.generators import GeneratorConfig, generate\n"
            "from graphsample.properties import property_report\n"
            "property_report(generate(GeneratorConfig(model='ff', nodes=300)))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n")
    src = str(Path(graphsample.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
