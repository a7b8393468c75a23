"""Every public function, class and method in ``src/homext`` is named
somewhere in the program (``src/``, ``demos/`` or ``perfbench/``) outside
its own definition, so no helper is left that only the tests reach."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "demos", "perfbench")


def _public_definitions(tree):
    """(qualified name, bare name, first line, last line) of the public
    module-level functions and classes and the public methods of those
    classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out.append((f"{node.name}.{item.name}", item.name,
                                item.lineno, item.end_lineno))
    return out


def _names_used(tree):
    """(name, line) of every identifier, attribute, imported name and
    identifier-like string constant in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.rsplit(".", 1)[-1], node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.append((node.value, node.lineno))
    return out


def unreached_public_names():
    uses = {}
    for d in PROGRAM_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for name, line in _names_used(ast.parse(path.read_text())):
                uses.setdefault(name, []).append((path, line))
    missing = []
    for path in sorted((ROOT / "src" / "homext").glob("*.py")):
        for qual, name, lo, hi in _public_definitions(ast.parse(path.read_text())):
            if not any(p != path or not lo <= line <= hi
                       for p, line in uses.get(name, ())):
                missing.append(f"{path.stem}.{qual}")
    return missing


def test_every_public_name_is_reached_from_the_program():
    assert unreached_public_names() == []
