"""Tests that the package metadata matches the source."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _third_party_import_roots() -> set[str]:
    roots = set()
    for path in (ROOT / "src" / "eigenop").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    return roots - set(sys.stdlib_module_names) - {"eigenop"}


def test_runtime_dependencies_are_the_third_party_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in project["dependencies"]}
    assert _third_party_import_roots() == declared


def test_package_version_matches_pyproject():
    import eigenop

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert eigenop.__version__ == project["version"]


def test_readme_library_overview_lists_every_module():
    import eigenop

    section = (ROOT / "README.md").read_text().split("## Library overview", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `eigenop\.(\w+)` \|", section, flags=re.M) == eigenop.__all__
