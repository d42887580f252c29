"""Source hygiene: no module imports a name it never uses, no function
in ``src/`` or ``jobs/`` takes a parameter it never reads, no ``_``-prefixed
function, method or module there goes unread, the harness and the
baselines import nothing from the set-based reference ``repro.pyref``, and
the package imports no test tooling (``duckdb``, ``pytest``).

Stdlib ``ast`` scans stand in for a linter's unused-import and unused-argument
rules. A name counts as used when the module reads it anywhere or lists it in
``__all__``; a parameter, when its function's body (nested functions
included) names it. ``self``, ``cls`` and ``_``-prefixed parameters are exempt.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "jobs", "tests")


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


def _unused_params(tree: ast.Module):
    """``(function, parameter, line)`` of every parameter its function's body never names."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        named = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        for p in params:
            if p not in named and p not in ("self", "cls") and not p.startswith("_"):
                yield getattr(fn, "name", "lambda"), p, fn.lineno


def unused_parameters(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.relative_to(ROOT)}:{line} {fn}({p})" for fn, p, line in _unused_params(tree)]


def test_scan_flags_an_unused_parameter():
    """``b`` and the lambda's ``y`` are never read; ``c`` is read by a nested
    function, and ``self``, ``cls`` and ``_d`` are exempt."""
    tree = ast.parse(
        "class A:\n"
        "    def f(self, a, b, c, *, _d):\n"
        "        def g():\n"
        "            return c\n"
        "        return a + g()\n"
        "    @classmethod\n"
        "    def h(cls):\n"
        "        return lambda x, y: x\n"
    )
    assert [(fn, p) for fn, p, _ in _unused_params(tree)] == [("f", "b"), ("lambda", "y")]


@pytest.mark.parametrize("top", ("src", "jobs"))
def test_no_unused_parameters(top):
    found = [hit for path in sorted((ROOT / top).rglob("*.py")) for hit in unused_parameters(path)]
    assert not found, "parameters never read:\n" + "\n".join(found)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_defs(tree: ast.Module):
    """``(name, line)`` of every ``_``-prefixed function or method (dunders exempt)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(node.name):
            yield node.name, node.lineno


def _reads(tree: ast.Module) -> set:
    """Every name the module reads: variables, attributes, imported names and
    modules, and string constants (``setattr``-style patching by name)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            read.update(node.module.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_scan_flags_an_unread_private_name():
    """``_g`` is never read; ``_f`` is called, ``_h`` patched by name, ``_m``
    imported, and ``__init__`` is a dunder."""
    tree = ast.parse(
        "from ._m import x\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._f()\n"
        "    def _f(self):\n"
        "        setattr(A, '_h', x)\n"
        "    def _g(self):\n"
        "        pass\n"
        "    def _h(self):\n"
        "        pass\n"
    )
    read = _reads(tree)
    assert [name for name, _ in _private_defs(tree) if name not in read] == ["_g"]
    assert "_m" in read


def test_no_unread_private_names():
    """A ``_``-prefixed function, method or module of ``src/`` or ``jobs/``
    that nothing under ``src/``, ``jobs/``, ``tests/`` or ``perfbench/`` reads."""
    read = set()
    for top in ("src", "jobs", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            read |= _reads(ast.parse(path.read_text(), filename=str(path)))
    found = []
    for top in ("src", "jobs"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in _private_defs(tree) if name not in read]
            if _private(path.stem) and path.stem not in read:
                found.append(f"{path.relative_to(ROOT)} (module)")
    assert not found, "private names nothing reads:\n" + "\n".join(found)


def _imported_modules(tree: ast.Module, package: list):
    """``(module, line)`` of every import of a module in ``package``
    (e.g. ``["repro", "baseline"]``), relative imports made absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            if node.module:
                yield ".".join(base + [node.module]), node.lineno
            else:
                for a in node.names:
                    yield ".".join(base + [a.name]), node.lineno


def _within(modules, *roots):
    """The ``(module, line)`` of ``modules`` that are one of ``roots`` or inside one."""
    return [(m, line) for m, line in modules if any(m == r or m.startswith(r + ".") for r in roots)]


def imports_within(path: Path, *roots):
    """Where the ``src/`` module ``path`` imports one of ``roots`` or a module inside one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package = list(path.relative_to(ROOT / "src").parent.parts)
    return [f"{path.relative_to(ROOT)}:{line}: {m}" for m, line in _within(_imported_modules(tree, package), *roots)]


def test_scan_resolves_relative_imports():
    """Both relative forms resolve to ``repro.pyref``; a longer name does not."""
    tree = ast.parse("from .. import pyref\nfrom ..pyref.kernels import dcc\nimport repro.pyrefx\n")
    modules = list(_imported_modules(tree, ["repro", "baseline"]))
    assert [m for m, _ in modules] == ["repro.pyref", "repro.pyref.kernels", "repro.pyrefx"]
    assert _within(modules, "repro.pyref") == [("repro.pyref", 1), ("repro.pyref.kernels", 2)]


def test_harness_and_baselines_do_not_import_pyref():
    """``LocalMLGraph`` and the set kernels are the tests' oracle; the
    table harness and the MiMAG baseline run on the local engine's arrays."""
    paths = [ROOT / "src/repro/harness.py", *sorted((ROOT / "src/repro/baseline").rglob("*.py"))]
    found = [hit for path in paths for hit in imports_within(path, "repro.pyref")]
    assert not found, "imports of repro.pyref:\n" + "\n".join(found)


def test_package_imports_no_test_tooling():
    """The DuckDB oracle and the pytest fixtures live under ``tests/``; no
    module of ``repro`` imports them."""
    paths = sorted((ROOT / "src/repro").rglob("*.py"))
    found = [hit for path in paths for hit in imports_within(path, "duckdb", "pytest")]
    assert not found, "test tooling imported by the package:\n" + "\n".join(found)
