"""Source hygiene: no module imports a name it never uses.

A stdlib ``ast`` scan stands in for a linter's unused-import rule. A name
counts as used when the module reads it anywhere or lists it in ``__all__``.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "jobs", "tests", "benchmarks")


def _imported(tree: ast.Module):
    """``(name, line)`` of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield a.asname or a.name, node.lineno


def _used(tree: ast.Module) -> set:
    """Names the module reads, plus those in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in _imported(tree) if name not in used]


def test_scan_flags_an_unused_import():
    """Only ``os`` is unused: ``Set`` is exported, ``List`` read in an annotation."""
    tree = ast.parse("import os\nfrom typing import List, Set\n\n__all__ = ['Set']\n\ndef f(x: List[int]):\n    return x\n")
    assert [name for name, _ in _imported(tree) if name not in _used(tree)] == ["os"]


@pytest.mark.parametrize("top", SCANNED)
def test_no_unused_imports(top):
    found = [hit for path in sorted((ROOT / top).rglob("*.py")) for hit in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)
