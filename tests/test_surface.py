"""The package's public surface: every exported name exists once, and no module imports what it never uses."""

import ast
import importlib
from pathlib import Path

import chanleak

PACKAGE = Path(chanleak.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _module_name(path: Path) -> str:
    return "chanleak" if path.stem == "__init__" else f"chanleak.{path.stem}"


def test_every_export_resolves_and_is_listed_once():
    exporting = {name: importlib.import_module(name) for name in map(_module_name, MODULES)}
    exporting = {name: module for name, module in exporting.items() if hasattr(module, "__all__")}
    assert {"chanleak", "chanleak.core", "chanleak.measures", "chanleak.optim", "chanleak.oracle",
            "chanleak.cli"} <= set(exporting)
    for name, module in exporting.items():
        assert len(module.__all__) == len(set(module.__all__)), name
        assert [entry for entry in module.__all__ if not hasattr(module, entry)] == [], name


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module binds by import and reads nowhere, its ``__all__`` included."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports(ast.parse("import os\nfrom x import a, b as c\n__all__ = ['a']")) == ["os", "c"]
    unused = {path.name: _unused_imports(ast.parse(path.read_text())) for path in MODULES}
    assert {name: names for name, names in unused.items() if names} == {}
