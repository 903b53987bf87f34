"""
No module of the package or of the tests imports a name it never uses. A
package `__init__.py` re-exports what it imports, and a name listed in a
module's `__all__` is exported, so both are exempt; so is `__future__`.

Nor does the package define a private function or class that no other
line of the package names: a helper whose last caller was deleted goes too.
Nor does a module export, in its `__all__`, a name that no other line of the
package or of the tests reads.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in [*ROOT.glob("tests/*.py"), *ROOT.glob("src/grhecke/*.py")] if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names bound by an import in source and never read, as 'line: name'."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """
    The private functions and classes (a leading underscore, not a dunder)
    defined in `sources`, a map from module name to source, that no name or
    attribute outside their own definition refers to, as 'module:line: name'.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    sites = _sites(trees)
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if all(m == module and first <= line <= node.end_lineno
                       for m, line in sites.get(node.name, [])):
                    out.append(f"{module}:{node.lineno}: {node.name}")
    return sorted(out)


def unread_exports(package: dict[str, str], tests: dict[str, str]) -> list[str]:
    """
    The names listed in the `__all__` of a module of `package` that no line
    of `package` or `tests` reads outside the top-level statement defining
    it, as 'module: name'. Both are maps from module name to source; the
    package's `__init__` re-exports what it imports. A read is resolved to
    its module: a bare name in the module itself, a name bound by `from
    module import name` (directly or through `__init__`), or `module.name`
    on a name bound to the module. So an attribute or method that happens to
    share the exported name reads nothing.
    """
    trees = {module: ast.parse(source) for module, source in {**tests, **package}.items()}
    reads = _export_reads(trees, package)
    out = []
    for module in package:
        spans, exported = {}, []
        for node in trees[module].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                spans[node.name] = (first, node.end_lineno)
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    spans[target.id] = (node.lineno, node.end_lineno)
                    if target.id == "__all__":
                        exported = ast.literal_eval(node.value)
        for name in exported:
            first, last = spans.get(name, (0, -1))
            if all(m == module and first <= line <= last
                   for m, line in reads.get((module, name), [])):
                out.append(f"{module}: {name}")
    return sorted(out)


def _export_reads(trees: dict[str, ast.Module],
                  package: dict[str, str]) -> dict[tuple[str, str], list[tuple[str, int]]]:
    """
    (module, line) of every read of a package module's name, by (the
    package module it resolves to, the name). The package itself, `grhecke`
    or a relative `from . import`, is the module `__init__`, and a name it
    imports from a package module resolves to that module.
    """
    def target(node: ast.ImportFrom) -> str | None:
        dotted = node.module or ""
        if not node.level:
            dotted = dotted.removeprefix("grhecke").removeprefix(".")
        return "__init__" if dotted == "" else dotted if dotted in package else None

    origin = {}  # a name of `__init__` -> the package module it is imported from
    if "__init__" in trees:
        for node in ast.walk(trees["__init__"]):
            if isinstance(node, ast.ImportFrom) and target(node) not in (None, "__init__"):
                origin.update((alias.name, target(node)) for alias in node.names)

    reads: dict[tuple[str, str], list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        names: dict[str, tuple[str, str]] = {}  # a local name -> (module, name) it binds
        modules: dict[str, str] = {}  # a local name -> the package module it binds
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.partition(".")[0] == "grhecke":
                        # `import grhecke.x` binds grhecke, `import grhecke.x as y` binds x
                        dotted = alias.name.removeprefix("grhecke").removeprefix(".")
                        modules[alias.asname or "grhecke"] = alias.asname and dotted or "__init__"
            elif isinstance(node, ast.ImportFrom) and (source := target(node)) is not None:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if source == "__init__" and alias.name in package:
                        modules[local] = alias.name
                    elif source == "__init__":
                        names[local] = (origin.get(alias.name, source), alias.name)
                    else:
                        names[local] = (source, alias.name)
        for node in ast.walk(tree):
            key = None
            if isinstance(node, ast.Name):
                key = names.get(node.id, (module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                source = modules[node.value.id]
                if source == "__init__":
                    source = origin.get(node.attr, source)
                key = (source, node.attr)
            if key is not None:
                reads.setdefault(key, []).append((module, node.lineno))
    return reads


def _sites(trees: dict[str, ast.Module]) -> dict[str, list[tuple[str, int]]]:
    """(module, line) of every Name and Attribute, by the name it reads."""
    sites: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                sites.setdefault(name, []).append((module, node.lineno))
    return sites


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as read\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "read(os.sep)\n"
    )
    assert unused_imports(source) == ["3: dumps"]


def test_no_private_definition_is_unreferenced():
    sources = {p.stem: p.read_text() for p in sorted(ROOT.glob("src/grhecke/*.py"))}
    assert unreferenced_private(sources) == []


def test_the_check_sees_an_unreferenced_private_definition():
    sources = {
        "a": (
            "def _called(): return 1\n"
            "def _recursive(k): return _recursive(k - 1) if k else 0\n"
            "class _Orphan:\n"
            "    def __init__(self): self._used = _called()\n"
            "    def _method(self): return self\n"
            "def public(): return _Helper()._method()\n"
        ),
        "b": "class _Helper:\n    pass\n",
    }
    assert unreferenced_private(sources) == ["a:2: _recursive", "a:3: _Orphan"]


def test_every_export_is_read():
    package = {p.stem: p.read_text() for p in sorted(ROOT.glob("src/grhecke/*.py"))}
    tests = {f"tests/{p.stem}": p.read_text() for p in sorted(ROOT.glob("tests/*.py"))}
    assert unread_exports(package, tests) == []


def test_the_check_sees_an_unread_export():
    package = {
        "a": (
            "__all__ = ['Alias', 'CONST', 'called', 'orphan', 'recursive', 'Tested',\n"
            "           'shadowed', 'renamed']\n"
            "Alias = tuple[int, ...]\n"
            "CONST: int = 3\n"
            "def called(x: Alias): return x\n"
            "def orphan(): return called(())\n"
            "def recursive(k): return recursive(k - 1) if k else 0\n"
            "class Tested:\n"
            "    pass\n"
            "def shadowed(): return 0\n"
            "def renamed(): return 1\n"
        ),
        # a method, and an attribute of another object, named as a's exports
        "b": (
            "from .a import orphan, renamed as again\n"
            "from . import a\n"
            "class Holder:\n"
            "    def shadowed(self): return self.recursive\n"
            "print(a.CONST, Holder().shadowed(), again())\n"
        ),
    }
    tests = {"tests/test_a": "from a import Tested\nTested()\n"}
    assert unread_exports(package, tests) == [
        "a: orphan", "a: recursive", "a: shadowed"]


def test_the_check_follows_the_package_root():
    package = {
        "__init__": "from .a import reexported, module_read\n",
        "a": "__all__ = ['reexported', 'module_read', 'unread']\n"
             "def reexported(): pass\ndef module_read(): pass\ndef unread(): pass\n",
    }
    tests = {"tests/test_a": (
        "import grhecke\nfrom grhecke import reexported\n"
        "reexported()\ngrhecke.module_read()\nunread = 1\n")}
    assert unread_exports(package, tests) == ["a: unread"]
