"""The package metadata in ``pyproject.toml`` declares what the code
imports: the runtime dependencies are exactly the third-party modules
imported under ``src/repro``, every one the tests import is a runtime or
``test`` dependency, the plugin behind the benches' ``benchmark`` fixture
is in an extra, and the version is read from ``repro.__version__``.  A
server process loads numpy and no other third-party module."""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
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
    assert imports == declared(PROJECT["project"]["dependencies"])


def test_serving_import_loads_no_third_party_module_but_numpy():
    # In a fresh interpreter, so that nothing another test imported
    # counts.  multiprocessing aliases __main__ as __mp_main__.
    script = """
import sys
before = set(sys.modules)
import repro.serving
added = {
    name.split(".")[0]
    for name in set(sys.modules) - before
    if sys.modules[name] is not sys.modules["__main__"]
}
print(*sorted(added - set(sys.stdlib_module_names) - {"repro"}))
"""
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert result.stdout.split() == ["numpy"]


def test_test_imports_are_declared_in_the_test_extra():
    imports = third_party_imports(ROOT / "tests", {"repro", "tests"})
    available = declared(PROJECT["project"]["dependencies"]) | declared(
        PROJECT["project"]["optional-dependencies"]["test"]
    )
    assert imports <= available


def test_benchmark_fixture_plugin_is_declared_in_an_extra():
    # The benches take pytest-benchmark's ``benchmark`` fixture, and CI's
    # gating read-once bench step (E18) passes its --benchmark-disable.
    users = {
        path.name
        for path in (ROOT / "benchmarks").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and "benchmark" in {arg.arg for arg in node.args.args}
    }
    assert "bench_readonce_region.py" in users
    extras = PROJECT["project"]["optional-dependencies"].values()
    assert any("pytest-benchmark" in declared(extra) for extra in extras)


def test_version_is_read_from_the_package():
    assert "version" in PROJECT["project"]["dynamic"]
    dynamic = PROJECT["tool"]["setuptools"]["dynamic"]["version"]
    assert dynamic == {"attr": "repro.__version__"}
    assert repro.__version__ == "1.0.0"
    assert PROJECT["tool"]["setuptools"]["packages"]["find"]["where"] == [
        "src"
    ]
