"""The benchmark's view of `src/`: every name `bench/` reaches for exists.

`bench/` runs only when the benchmark does, so a name it uses that goes
missing from `falcon_bft` must fail here first.
"""

import ast
import importlib

import pytest

from support import BENCH_DIR, load_bench_module


def test_every_traced_target_resolves_in_its_owner():
    # the tracer wraps `owner.__dict__[attr]`: an inherited or missing
    # attribute fails when the benchmark installs it
    layers = load_bench_module("layers")
    for name, module_name, class_name, attr in layers.TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        assert attr in owner.__dict__, name


def _falcon_names(tree: ast.AST) -> set:
    """(module, name) for each falcon_bft name a file imports, and for each
    attribute it reads off a falcon_bft module it imported."""
    modules = {}  # local name -> the falcon_bft module it is bound to
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.name, None) for a in node.names if a.name.startswith("falcon_bft"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("falcon_bft"):
            for alias in node.names:
                if node.module == "falcon_bft":
                    modules[alias.asname or alias.name] = f"falcon_bft.{alias.name}"
                    names.add((f"falcon_bft.{alias.name}", None))
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.add((modules[node.value.id], node.attr))
    return names


@pytest.mark.parametrize("filename", ["run.py", "workloads.py", "layers.py"])
def test_every_name_the_bench_imports_exists(filename):
    names = _falcon_names(ast.parse((BENCH_DIR / filename).read_text()))
    assert names
    for module_name, attr in sorted(names, key=str):
        module = importlib.import_module(module_name)
        assert attr is None or hasattr(module, attr), f"{filename}: {module_name}.{attr}"


def test_the_scan_sees_the_bench_pipeline():
    names = _falcon_names(ast.parse((BENCH_DIR / "run.py").read_text()))
    for expected in (
        ("falcon_bft.core_types", "encode_envelope"),
        ("falcon_bft.simnet", "schedule"),
        ("falcon_bft.observer", "check_liveness"),
        ("falcon_bft.metrics", "tx_records"),
    ):
        assert expected in names
