"""Every name that a module under src/ or tests/ imports is used there.

An import binds names (`import a.b` binds `a`); each must be loaded
somewhere in the same file or listed in its `__all__`, the package's
re-exports.  `from __future__` imports are directives and bind nothing.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The imported names of `source` that it never loads or exports, with
    the line of their import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {element.value for element in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport a.b\nimport c as d\nfrom e import f, g\n\nf(a)\n"
    assert unused_imports(source) == ["d (line 3)", "g (line 4)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
