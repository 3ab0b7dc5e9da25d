"""The package runs on the standard library, numpy and PyYAML alone."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"switchrd", "numpy", "yaml"}


def imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "switchrd").glob("*.py")), ids=lambda p: p.name
)
def test_imports_only_stdlib_numpy_and_yaml(path):
    assert set(imported_modules(path)) <= ALLOWED


def test_declared_dependencies_are_numpy_and_pyyaml():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in deps}
    assert names == {"numpy", "pyyaml"}
