"""The package runs on the standard library alone: every absolute import in
src/tropmoduli names a standard-library module.  Every name the package
exports resolves."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "tropmoduli").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside}"


def test_every_exported_name_resolves():
    import tropmoduli

    missing = [name for name in tropmoduli.__all__ if not hasattr(tropmoduli, name)]
    assert not missing, f"tropmoduli.__all__ names {missing}"
