"""The package names the benchmark under perfbench/ calls or traces, and
the arguments it passes them.

perfbench/tracing.py wraps each (module, function) pair of its TRACED list
with a getattr that has no default, and perfbench/workloads.py calls the
package through module attributes; a name that one of them reads and the
package no longer has, or a call its signature no longer takes, would
break the benchmark, not a test.
"""

import ast
import importlib
import inspect
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


def _is_package_attribute(node):
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in MODULES)


def _workload_nodes():
    return ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text()))


def _workload_attributes():
    return {(node.value.id, node.attr)
            for node in _workload_nodes() if _is_package_attribute(node)}


def test_benchmark_names_exist_in_the_package():
    names = set(_traced()) | _workload_attributes()
    assert len(names) > 30
    missing = sorted(
        f"{mod}.{attr}" for mod, attr in names
        if not hasattr(importlib.import_module(f"finpart.{mod}"), attr)
    )
    assert not missing, missing


def test_benchmark_calls_bind_to_the_package_signatures():
    """Each package call in perfbench/workloads.py, by its count of
    positional arguments and its keyword names; suite_fact00 keeps its
    unread `jobs` for the seventh of them."""
    calls = [node for node in _workload_nodes()
             if isinstance(node, ast.Call) and _is_package_attribute(node.func)]
    assert any(call.func.attr == "suite_fact00" and len(call.args) == 7
               for call in calls)
    for call in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        fn = getattr(importlib.import_module(f"finpart.{call.func.value.id}"),
                     call.func.attr)
        inspect.signature(fn).bind(*call.args,
                                   **{kw.arg: None for kw in call.keywords})


def test_benchmark_report_attributes_exist_on_a_suite_report():
    """perfbench/workloads.py checks each suite's report through the
    attributes it reads off its `rep` name."""
    read = {node.attr for node in _workload_nodes()
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "rep"}
    assert read
    rep = importlib.import_module("finpart.suites").suite_bijection(2, 2)
    missing = sorted(attr for attr in read if not hasattr(rep, attr))
    assert not missing, missing
