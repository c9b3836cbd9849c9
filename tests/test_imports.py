"""The package's own imports form an acyclic graph, function-local imports included, and the
CLI's import leaves out what only a simulator call needs."""

import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abcsmc

PACKAGE = Path(abcsmc.__file__).parent


def _intra_package_imports(path: Path, modules: set[str]) -> set[str]:
    """The package modules that one module imports, at any nesting depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "abcsmc":
                    continue
                module = module[len("abcsmc"):].lstrip(".")
            target = module.split(".")[0]
            if target:
                found.add(target)
            else:  # from . import x (or from abcsmc import x): x may be a module
                found.update(a.name for a in node.names if a.name in modules)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("abcsmc."))
    return (found & modules) - {path.stem}


def test_package_import_graph_is_acyclic():
    modules = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    graph = {name: _intra_package_imports(PACKAGE / f"{name}.py", modules) for name in modules}
    assert graph["smc"] >= {"mcmc", "madapt"}  # the walk sees module-level imports
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as err:
        pytest.fail("import cycle " + " -> ".join(err.args[1]))


def test_cli_import_leaves_concurrent_futures_out():
    """The mixture simulator imports ``concurrent.futures`` on its first call, so the CLI's start-up does not."""
    code = "import sys, abcsmc.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
