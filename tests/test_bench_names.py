"""The names the benchmark harness wraps or calls must exist in the package.

`bench/` is read, never imported or changed: a rename in `hqcsim` fails here
instead of breaking a traced benchmark run.
"""
import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).parent.parent / "bench"


def _spanned_pairs() -> tuple:
    tree = ast.parse((BENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANNED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no SPANNED")


def _package_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every `from hqcsim... import name` and every
    attribute read off a module imported with `from hqcsim import module`,
    also where the module is kept as an attribute (`self.runner.run_hqcm`)."""
    tree = ast.parse(path.read_text())
    modules: dict[str, str] = {}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "hqcsim":
            for alias in node.names:
                if node.module == "hqcsim":
                    modules[alias.asname or alias.name] = f"hqcsim.{alias.name}"
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
            if base in modules:
                names.add((modules[base], node.attr))
    return names


def test_spanned_functions_exist():
    pairs = _spanned_pairs()
    assert pairs
    for module, function in pairs:
        assert callable(getattr(importlib.import_module(f"hqcsim.{module}"), function, None)), (module, function)


@pytest.mark.parametrize("script", ["kernels.py", "tracing.py", "workloads.py", "selftest.py"])
def test_names_the_bench_calls_exist(script):
    names = _package_names(BENCH / script)
    if script == "kernels.py":
        assert ("hqcsim.star", "multi_z_rotation") in names  # the scan sees the kernel table
    for module, name in sorted(names):
        assert hasattr(importlib.import_module(module), name), f"bench/{script} uses {module}.{name}"
