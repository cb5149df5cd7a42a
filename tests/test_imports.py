"""The package runs on the standard library alone: every absolute import in
src/tropmoduli names a standard-library module.  Every name the package
exports resolves, on first use, to the object of its defining module.  The
modules import each other without a cycle, and the face poset (complexes)
and the homology stay apart: homology reads orbits from enumeration, and
neither module imports the other.  A cold start loads only what it runs:
building the CLI's parser loads cli and errors alone, and each command
loads only the layers it calls."""

import ast
import importlib
import subprocess
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


def test_every_export_is_the_object_of_its_defining_module():
    import tropmoduli

    for name in tropmoduli.__all__:
        if name == "__version__":
            continue
        value = getattr(tropmoduli, name)
        assert value.__module__.startswith("tropmoduli."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert vars(tropmoduli)[name] is value, f"{name} is not cached"


def test_star_import_and_dir_read_all():
    import tropmoduli

    namespace: dict = {}
    exec("from tropmoduli import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tropmoduli.__all__)
    assert set(tropmoduli.__all__) <= set(dir(tropmoduli))


def test_unknown_name_is_an_attribute_error_and_submodules_import():
    import tropmoduli

    with pytest.raises(AttributeError, match="no_such_name"):
        tropmoduli.no_such_name
    from tropmoduli import cli, complexes

    assert complexes is sys.modules["tropmoduli.complexes"]
    assert cli is sys.modules["tropmoduli.cli"]


def test_moved_names_still_resolve_where_they_were():
    from tropmoduli import errors, homology, rationals

    assert homology.DEFAULT_MAX_GENERATORS == errors.DEFAULT_MAX_GENERATORS == 20_000
    assert rationals.is_integer is errors.is_integer


def _loaded_by(code: str) -> set[str]:
    """The modules that code loads in a fresh interpreter, not counting those
    present when it starts (site and what site imports)."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return set(result.stderr.split())


def _command(*argv: str) -> str:
    return f"from tropmoduli import cli; assert cli.dispatch({list(argv)!r}) == 0"


def test_building_the_parser_loads_only_cli_and_errors():
    loaded = _loaded_by("import tropmoduli.cli as cli; cli.build_parser()")
    package = {m for m in loaded if m.split(".")[0] == "tropmoduli"}
    assert package == {"tropmoduli", "tropmoduli.cli", "tropmoduli.errors"}
    assert not loaded & {"dataclasses", "fractions"}


def test_homology_loads_no_face_poset_curve_or_rational():
    loaded = _loaded_by(_command("homology", "--genus", "0", "--markings", "5"))
    assert "tropmoduli.homology" in loaded
    unused = {f"tropmoduli.{m}" for m in ("complexes", "metric", "plane", "rationals")}
    assert not loaded & (unused | {"fractions"})


def test_enumerate_csv_loads_no_homology():
    loaded = _loaded_by(
        _command("enumerate", "--genus", "2", "--markings", "0", "--format", "csv")
    )
    assert "tropmoduli.enumeration" in loaded
    assert "tropmoduli.homology" not in loaded


def test_module_run_of_the_cli_warns_nothing():
    # runpy warns when the package has imported the module it is asked to run
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "tropmoduli.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stderr == ""


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
