"""The package names the benchmark under perfbench/ calls or traces.

perfbench/tracing.py wraps each (module, function) pair of its TRACED list
with a getattr that has no default, and perfbench/workloads.py calls the
package through module attributes; a name that one of them reads and the
package no longer has would break the benchmark, not a test.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "coding", "core", "operators", "ramsey")


def _traced():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED list")


def _workload_attributes():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id in MODULES
    }


def test_benchmark_names_exist_in_the_package():
    names = set(_traced()) | _workload_attributes()
    assert len(names) > 30
    missing = sorted(
        f"{mod}.{attr}" for mod, attr in names
        if not hasattr(importlib.import_module(f"finpart.{mod}"), attr)
    )
    assert not missing, missing
