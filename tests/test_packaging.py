"""Declared dependencies: the library needs numpy alone, and every third-party
module the tests and the benchmark import is declared in pyproject.toml."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports(folder: Path) -> set[str]:
    """Top-level names of the absolute imports and `importorskip` calls in
    folder's modules, less the standard library, the package and the folder's
    own modules."""
    modules = list(folder.rglob("*.py"))
    names = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
            elif (isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "importorskip"
                  and isinstance(node.args[0], ast.Constant)):
                names.add(node.args[0].value.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {p.stem for p in modules} - {"dpcvar"}


def _requirement_names(requirements: list[str]) -> set[str]:
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower().replace("-", "_")
            for req in requirements}


def test_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    runtime = _requirement_names(project["dependencies"])
    test_extra = _requirement_names(project["optional-dependencies"]["test"])
    assert runtime == {"numpy"}
    assert _third_party_imports(ROOT / "src" / "dpcvar") == runtime
    for folder in ("tests", "bench"):
        assert _third_party_imports(ROOT / folder) <= runtime | test_extra, folder
