"""Every module imports only names it uses."""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/tctp/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list:
    """Names bound by an import that the module never reads.

    A name listed in ``__all__`` counts as read; ``from __future__`` imports
    bind nothing.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_what_a_module_leaves_unread():
    source = ("from __future__ import annotations\n"
              "import math, os.path\nfrom a import b as c, d\n"
              "__all__ = ['d']\nos.sep\n")
    assert unused_imports(source) == [(2, "math"), (3, "c")]
