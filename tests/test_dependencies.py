"""The package imports only the standard library and the dependencies
``pyproject.toml`` declares (numpy and orjson), so that a package installed
for the benchmark harness alone, such as scipy, cannot leak into it."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "metavec"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "orjson", "metavec"}


def imported_roots(path):
    """The top-level name of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_package_imports_only_its_declared_dependencies():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    foreign = {path.name: sorted(set(imported_roots(path)) - ALLOWED) for path in sources}
    assert {name: roots for name, roots in foreign.items() if roots} == {}


def test_the_check_sees_a_foreign_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os.path\nfrom scipy import linalg\nfrom . import sibling\n")
    assert set(imported_roots(path)) - ALLOWED == {"scipy"}
