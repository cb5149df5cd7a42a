"""The package runs on the standard library alone: every absolute import in
src/tropmoduli names a standard-library module.  Every name the package
exports resolves.  The modules import each other without a cycle, and the
face poset (complexes) and the homology stay apart: homology reads orbits
from enumeration, and neither module imports the other."""

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


def _package_imports() -> dict[str, set[str]]:
    """Each module of the package, by name, with the modules of the package
    that its relative imports name."""
    graph = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    named.add(node.module.split(".")[0])
                else:  # from . import module
                    named.update(alias.name for alias in node.names)
        graph[path.stem] = named
    return graph


def test_package_imports_have_no_cycle():
    graph = _package_imports()
    assert set().union(*graph.values()) <= set(graph)
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, f"import cycle: {' -> '.join((*path, module))}"
        if module not in done:
            for imported in sorted(graph[module]):
                visit(imported, (*path, module))
            done.add(module)

    for module in sorted(graph):
        visit(module, ())


def test_homology_and_complexes_import_nothing_from_each_other():
    graph = _package_imports()
    assert "complexes" not in graph["homology"]
    assert "homology" not in graph["complexes"]
