"""Every top-level function and class of the package has a reader.

A reader is a use of the name outside its own definition: in package
code, in a test, or under perfbench/ (the strings of its TRACED list
count).  A helper that nothing reads any more fails here, so it is
deleted rather than left behind.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finpart"


def _reads(tree, skip=None):
    """The names a tree reads: loaded names, attributes, imported names and
    string constants, outside the node `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_top_level_definition_has_a_reader():
    trees = {
        path: ast.parse(path.read_text())
        for pattern in ("src/finpart/*.py", "tests/*.py", "perfbench/*.py")
        for path in ROOT.glob(pattern)
    }
    elsewhere = {path: _reads(tree) for path, tree in trees.items()}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            readers = [p for p in trees if p != path and node.name in elsewhere[p]]
            if not readers and node.name not in _reads(trees[path], skip=node):
                unread.append(f"{path.name}:{node.lineno} {node.name}")
    assert len(trees) > 20
    assert not unread, unread
