"""The package metadata in ``pyproject.toml`` declares what the code
imports: every third-party module imported under ``src/repro`` is a
runtime dependency, every one the tests import is a runtime or ``test``
dependency, and the version is read from ``repro.__version__``."""

from __future__ import annotations

import ast
import pathlib
import re
import sys
import tomllib

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())


def third_party_imports(directory: pathlib.Path, local: set[str]) -> set[str]:
    """Top-level names of the non-stdlib, non-local modules imported by
    the ``.py`` files under ``directory``."""
    names = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - local


def declared(requirements: list[str]) -> set[str]:
    """Distribution names of PEP 508 requirement strings."""
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0) for r in requirements}


def test_src_imports_are_declared_dependencies():
    imports = third_party_imports(ROOT / "src" / "repro", {"repro"})
    assert "numpy" in imports  # the scan sees the unconditional imports
    assert imports <= declared(PROJECT["project"]["dependencies"])


def test_test_imports_are_declared_in_the_test_extra():
    imports = third_party_imports(ROOT / "tests", {"repro", "tests"})
    available = declared(PROJECT["project"]["dependencies"]) | declared(
        PROJECT["project"]["optional-dependencies"]["test"]
    )
    assert imports <= available


def test_version_is_read_from_the_package():
    assert "version" in PROJECT["project"]["dynamic"]
    dynamic = PROJECT["tool"]["setuptools"]["dynamic"]["version"]
    assert dynamic == {"attr": "repro.__version__"}
    assert repro.__version__ == "1.0.0"
    assert PROJECT["tool"]["setuptools"]["packages"]["find"]["where"] == [
        "src"
    ]
